type data = { points : Interpolate.point list }

let compute mode =
  let rng = Rng.create (Exp_common.master_seed + 9) in
  let model = Models.build (Models.resnet34 ~scale:`Train ()) rng in
  let data =
    Exp_common.train_data (Rng.split rng) ~input_size:model.Models.input_size
      ~classes:10
  in
  let points =
    Interpolate.run ~seeds:(Exp_common.seeds mode)
      ~train_steps:(Exp_common.train_steps mode)
      ~ctx:(Eval_ctx.create ()) ~rng:(Rng.split rng) ~device:Device.i7 ~data model
  in
  { points }

let print ppf d =
  Exp_common.section ppf "Figure 9: interpolating between NAS models (ResNet-34)";
  Format.fprintf ppf "%-20s %-6s | %12s | %18s@." "point" "kind" "latency"
    "accuracy (mean+-se)";
  List.iter
    (fun (p : Interpolate.point) ->
      Format.fprintf ppf "%-20s %-6s | %a | %6.1f%% +- %.1f%%%s@." p.Interpolate.ip_name
        (match p.ip_kind with `Nas -> "NAS" | `Ours -> "ours")
        Exp_common.pp_us p.ip_latency_s (100.0 *. p.ip_acc_mean)
        (100.0 *. p.ip_acc_err)
        (if p.ip_pareto then "  [pareto-optimal]" else ""))
    d.points;
  let ours_pareto =
    List.exists
      (fun (p : Interpolate.point) -> p.Interpolate.ip_kind = `Ours && p.ip_pareto)
      d.points
  in
  Format.fprintf ppf
    "@.interpolated operators reach points unavailable to menu-based NAS%s@."
    (if ours_pareto then "; at least one is Pareto-optimal" else "")

let to_csv d =
  Csv_out.write ~name:"fig9_interpolation"
    ~header:[ "point"; "kind"; "latency_s"; "acc_mean"; "acc_stderr"; "pareto" ]
    (List.map
       (fun (p : Interpolate.point) ->
         [ p.Interpolate.ip_name;
           (match p.ip_kind with `Nas -> "nas" | `Ours -> "ours");
           Csv_out.float_cell p.ip_latency_s; Csv_out.float_cell p.ip_acc_mean;
           Csv_out.float_cell p.ip_acc_err; string_of_bool p.ip_pareto ])
       d.points)

let run mode ppf =
  let d = compute mode in
  print ppf d;
  ignore (to_csv d);
  d
