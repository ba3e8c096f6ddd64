(* Figure-4-style sweep over the families the registry adds beyond the six
   paper presets: for each non-paper zoo entry, run the unified search on
   every modelled device and report baseline vs searched latency.  The point
   of the block algebra is that new families are one registry line away from
   being searchable workloads; this section exercises exactly that path. *)

type row = {
  network : string;
  family : string;
  sites : int;
  device : Device.t;
  baseline_s : float;
  ours_s : float;
  ours_params : int;
  baseline_params : int;
  fisher_rejected : int;
  explored : int;
}

let speedup r = r.baseline_s /. r.ours_s

let new_families () =
  List.filter (fun e -> not e.Zoo.ze_paper) Zoo.all

let compute mode =
  let ctx = Eval_ctx.create () in
  let rows = ref [] in
  List.iteri
    (fun i (e : Zoo.entry) ->
      let rng = Rng.create (Exp_common.master_seed + 70 + i) in
      let model = Models.build (e.ze_spec `Search) rng in
      let probe =
        Exp_common.probe_batch (Rng.split rng)
          ~input_size:model.Models.input_size
      in
      let results =
        Unified_search.search_multi
          ~candidates:(Exp_common.candidates mode)
          ~ctx ~rng:(Rng.split rng) ~devices:Device.all ~probe model
      in
      List.iter
        (fun (device, r) ->
          rows :=
            { network = e.ze_name;
              family = e.ze_family;
              sites = Array.length model.Models.sites;
              device;
              baseline_s = r.Unified_search.r_baseline.Pipeline.ev_latency_s;
              ours_s = r.Unified_search.r_best.Unified_search.cd_latency_s;
              ours_params = r.r_best.cd_params;
              baseline_params = r.r_baseline.Pipeline.ev_params;
              fisher_rejected = r.r_rejected;
              explored = r.r_explored }
            :: !rows)
        results)
    (new_families ());
  List.rev !rows

let print ppf rows =
  Exp_common.section ppf
    "Zoo: transformation search on the registry's new families";
  Format.fprintf ppf "%-16s %-5s | %5s | %12s %12s | %8s@." "network" "dev"
    "sites" "baseline" "ours" "speedup";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %-5s | %5d | %a %a | %7.2fx  %s@." r.network
        r.device.Device.short_name r.sites Exp_common.pp_us r.baseline_s
        Exp_common.pp_us r.ours_s (speedup r)
        (Exp_common.bar (speedup r)))
    rows;
  Format.fprintf ppf "@.geomean speedup per family:@.";
  List.iter
    (fun (e : Zoo.entry) ->
      let mine = List.filter (fun r -> r.network = e.ze_name) rows in
      if mine <> [] then begin
        let g = Stats.geomean (Array.of_list (List.map speedup mine)) in
        Format.fprintf ppf "  %-16s %5.2fx@." e.ze_name g
      end)
    (new_families ())

let to_csv rows =
  Csv_out.write ~name:"zoo_new_families"
    ~header:
      [ "network"; "family"; "device"; "sites"; "baseline_s"; "ours_s";
        "speedup"; "baseline_params"; "ours_params"; "explored"; "rejected" ]
    (List.map
       (fun r ->
         [ r.network; r.family; r.device.Device.short_name;
           Csv_out.int_cell r.sites; Csv_out.float_cell r.baseline_s;
           Csv_out.float_cell r.ours_s; Csv_out.float_cell (speedup r);
           Csv_out.int_cell r.baseline_params; Csv_out.int_cell r.ours_params;
           Csv_out.int_cell r.explored; Csv_out.int_cell r.fisher_rejected ])
       rows)

let run mode ppf =
  let rows = compute mode in
  print ppf rows;
  ignore (to_csv rows);
  rows
