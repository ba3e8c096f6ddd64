(* Domain scenario: fit DenseNet-161 under a latency budget on the Jetson
   Nano's Maxwell mGPU — the paper's motivating deployment target, where
   relaxed memory pressure matters most (sec 7.1).

   The script runs the unified search, then walks the Fisher-legal
   candidates to report the full latency/size frontier and the cheapest
   configuration meeting the budget.

   Run with:  dune exec examples/edge_deploy.exe *)

let ppf = Format.std_formatter

let () =
  let rng = Rng.create 31 in
  let model = Models.build (Models.densenet161 ()) rng in
  let device = Device.maxwell_mgpu in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
  let ctx = Eval_ctx.create () in
  let baseline = Pipeline.baseline ~ctx device model in
  Format.fprintf ppf "deploying %s on %a@." model.Models.name Device.pp device;
  Format.fprintf ppf "baseline latency %a, %.2fM conv params@.@." Exp_common.pp_us
    baseline.Pipeline.ev_latency_s
    (float_of_int baseline.Pipeline.ev_params /. 1e6);

  let budget_s = baseline.Pipeline.ev_latency_s /. 1.5 in
  Format.fprintf ppf "latency budget: %a (1.5x tighter than baseline)@.@."
    Exp_common.pp_us budget_s;

  let r =
    Unified_search.search ~candidates:200 ~ctx ~rng:(Rng.split rng) ~device ~probe model
  in
  let best = r.Unified_search.r_best in
  Format.fprintf ppf "unified search: best %a (%.2fx), %d/%d rejected by Fisher@."
    Exp_common.pp_us best.Unified_search.cd_latency_s (Unified_search.speedup r)
    r.r_rejected r.r_explored;
  if best.cd_latency_s <= budget_s then
    Format.fprintf ppf "budget met with %.2fx compression.@."
      (float_of_int baseline.Pipeline.ev_params /. float_of_int (max 1 best.cd_params))
  else
    Format.fprintf ppf "budget missed; consider loosening the Fisher slack.@.";

  (* The decision summary a deployment engineer would act on. *)
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun (p : Site_plan.t) ->
      let k = p.Site_plan.sp_name in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    best.cd_plans;
  Format.fprintf ppf "@.chosen operators (count x kind):@.";
  Hashtbl.iter (fun k v -> Format.fprintf ppf "  %3d x %s@." v k) counts
