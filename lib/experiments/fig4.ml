type row = {
  network : string;
  device : Device.t;
  tvm_s : float;
  nas_s : float;
  ours_s : float;
  ours_plans : Site_plan.t array;
  ours_params : int;
  baseline_params : int;
  fisher_rejected : int;
  explored : int;
  search_wall_s : float;
}

type data = {
  rows : row list;
  nas_impls : (string * Conv_impl.t array) list;
}

let nas_speedup r = r.tvm_s /. r.nas_s
let ours_speedup r = r.tvm_s /. r.ours_s

let compute mode =
  let ctx = Eval_ctx.create () in
  let rows = ref [] and nas_impls = ref [] in
  List.iteri
    (fun i config ->
      let rng = Rng.create (Exp_common.master_seed + 40 + i) in
      let model = Models.build config rng in
      let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
      (* NAS baseline: BlockSwap under a parameter budget, then compile. *)
      let bs =
        Blockswap.search
          ~samples:(Exp_common.blockswap_samples mode)
          ~ctx ~rng:(Rng.split rng) ~probe model
      in
      nas_impls := (model.Models.name, bs.Blockswap.bs_impls) :: !nas_impls;
      let nas_plans = Array.map (fun impl -> Site_plan.make impl) bs.Blockswap.bs_impls in
      (* Ours: the unified search, sharing Fisher evaluations across devices. *)
      let results =
        Unified_search.search_multi
          ~candidates:(Exp_common.candidates mode)
          ~ctx ~rng:(Rng.split rng) ~devices:Device.all ~probe model
      in
      List.iter
        (fun (device, r) ->
          let nas_ev = Pipeline.evaluate ~ctx device model ~plans:nas_plans in
          rows :=
            { network = model.Models.name;
              device;
              tvm_s = r.Unified_search.r_baseline.Pipeline.ev_latency_s;
              nas_s = nas_ev.Pipeline.ev_latency_s;
              ours_s = r.Unified_search.r_best.Unified_search.cd_latency_s;
              ours_plans = r.r_best.cd_plans;
              ours_params = r.r_best.cd_params;
              baseline_params = r.r_baseline.Pipeline.ev_params;
              fisher_rejected = r.r_rejected;
              explored = r.r_explored;
              search_wall_s = r.r_wall_s }
            :: !rows)
        results)
    (Exp_common.cifar_configs ());
  { rows = List.rev !rows; nas_impls = List.rev !nas_impls }

let print ppf d =
  Exp_common.section ppf
    "Figure 4: end-to-end CIFAR-10 performance (TVM vs NAS vs Ours)";
  Format.fprintf ppf "%-14s %-5s | %12s %12s %12s | %8s %8s@." "network" "dev"
    "TVM" "NAS" "Ours" "NASx" "Oursx";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %-5s | %a %a %a | %7.2fx %7.2fx  %s@." r.network
        r.device.Device.short_name Exp_common.pp_us r.tvm_s Exp_common.pp_us r.nas_s
        Exp_common.pp_us r.ours_s (nas_speedup r) (ours_speedup r)
        (Exp_common.bar (ours_speedup r)))
    d.rows;
  (* Per-device geometric means, the figure's headline. *)
  Format.fprintf ppf "@.geomean speedup over TVM:@.";
  List.iter
    (fun dev ->
      let mine =
        List.filter (fun r -> r.device.Device.short_name = dev.Device.short_name) d.rows
      in
      if mine <> [] then begin
        let g f = Stats.geomean (Array.of_list (List.map f mine)) in
        Format.fprintf ppf "  %-5s NAS %5.2fx   Ours %5.2fx@." dev.Device.short_name
          (g nas_speedup) (g ours_speedup)
      end)
    Device.all

let to_csv d =
  Csv_out.write ~name:"fig4_end_to_end"
    ~header:
      [ "network"; "device"; "tvm_s"; "nas_s"; "ours_s"; "nas_speedup";
        "ours_speedup"; "baseline_params"; "ours_params"; "explored"; "rejected";
        "search_wall_s" ]
    (List.map
       (fun r ->
         [ r.network; r.device.Device.short_name; Csv_out.float_cell r.tvm_s;
           Csv_out.float_cell r.nas_s; Csv_out.float_cell r.ours_s;
           Csv_out.float_cell (nas_speedup r); Csv_out.float_cell (ours_speedup r);
           Csv_out.int_cell r.baseline_params; Csv_out.int_cell r.ours_params;
           Csv_out.int_cell r.explored; Csv_out.int_cell r.fisher_rejected;
           Csv_out.float_cell r.search_wall_s ])
       d.rows)

let run mode ppf =
  let d = compute mode in
  print ppf d;
  ignore (to_csv d);
  d
