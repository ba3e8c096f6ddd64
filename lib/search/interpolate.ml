type point = {
  ip_name : string;
  ip_kind : [ `Nas | `Ours ];
  ip_latency_s : float;
  ip_acc_mean : float;
  ip_acc_err : float;
  ip_pareto : bool;
}

(* The interpolated configurations: per-site assignments stepping from
   all-g=2 to all-g=4 through mixtures and the split-grouped operator the
   framework synthesizes. *)
let configurations model =
  let sites = model.Models.sites in
  let g g_factor site = if Conv_impl.valid site (Conv_impl.Grouped g_factor) then Conv_impl.Grouped g_factor else Conv_impl.Full in
  let sg site =
    if Conv_impl.valid site (Conv_impl.Split_grouped (2, 4)) then
      Conv_impl.Split_grouped (2, 4)
    else if Conv_impl.valid site (Conv_impl.Grouped 2) then Conv_impl.Grouped 2
    else Conv_impl.Full
  in
  let all f = Array.map f sites in
  [ ("NAS-A (g=2)", `Nas, all (g 2));
    ("NAS-B (g=4)", `Nas, all (g 4));
    ( "ours 1/4",
      `Ours,
      Array.mapi (fun i site -> if i mod 4 = 0 then g 4 site else g 2 site) sites );
    ("ours split-group", `Ours, all sg);
    ( "ours 3/4",
      `Ours,
      Array.mapi (fun i site -> if i mod 4 = 0 then g 2 site else g 4 site) sites );
    ( "ours alternating",
      `Ours,
      Array.mapi (fun i site -> if i mod 2 = 0 then sg site else g 4 site) sites ) ]

let run ?(seeds = 3) ?(train_steps = 60) ~ctx ~rng ~device ~data model =
  let obs = Eval_ctx.obs ctx in
  Obs.with_span obs "interpolate" @@ fun () ->
  let val_batches =
    List.filteri (fun i _ -> i < 4) (Synthetic_data.batches data ~batch_size:16)
  in
  let evaluate_config (name, kind, impls) =
    Obs.incr obs "interpolate.configs";
    let accs =
      Array.init seeds (fun _ ->
          let candidate = Models.rebuild model (Rng.split rng) impls in
          let batch_rng = Rng.split rng in
          let _ =
            Train.train candidate ~steps:train_steps
              ~batch_fn:(fun step ->
                Synthetic_data.batch_fn batch_rng data ~batch_size:16 step)
              ~base_lr:0.05
          in
          Train.evaluate candidate val_batches)
    in
    let plans = Array.map (fun impl -> Site_plan.make impl) impls in
    let latency = (Pipeline.evaluate ~ctx device model ~plans).Pipeline.ev_latency_s in
    { ip_name = name;
      ip_kind = kind;
      ip_latency_s = latency;
      ip_acc_mean = Stats.mean accs;
      ip_acc_err = Stats.stderr_of_mean accs;
      ip_pareto = false }
  in
  let points = List.map evaluate_config (configurations model) in
  let as_pareto =
    List.map
      (fun p ->
        { Pareto.pt_name = p.ip_name;
          pt_latency_s = p.ip_latency_s;
          pt_accuracy = p.ip_acc_mean })
      points
  in
  List.map
    (fun p ->
      { p with
        ip_pareto =
          Pareto.is_pareto_optimal
            { Pareto.pt_name = p.ip_name;
              pt_latency_s = p.ip_latency_s;
              pt_accuracy = p.ip_acc_mean }
            as_pareto })
    points
