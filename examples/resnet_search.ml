(* End-to-end scenario: deploy ResNet-34 on a server CPU.

   Runs the full unified pipeline — BlockSwap NAS baseline, then the
   unified transformation search — and prints the per-site decisions of the
   winning configuration, its predicted latency, size and Fisher budget,
   mirroring how a user of the paper's system would optimize one network
   for one target.

   Run with:  dune exec examples/resnet_search.exe *)

let ppf = Format.std_formatter

let () =
  let rng = Rng.create 2024 in
  let model = Models.build (Models.resnet34 ()) rng in
  let device = Device.i7 in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
  let ctx = Eval_ctx.create () in
  Format.fprintf ppf "network: %s (%d transformable sites, %d nodes, %.2fM paper-scale conv params)@."
    model.Models.name
    (Array.length model.Models.sites)
    (Graph.node_count model.Models.graph)
    (float_of_int (Pipeline.baseline ~ctx device model).Pipeline.ev_params /. 1e6);
  Format.fprintf ppf "target:  %a@.@." Device.pp device;

  (* The NAS baseline first. *)
  let bs = Blockswap.search ~samples:80 ~ctx ~rng:(Rng.split rng) ~probe model in
  let nas_plans = Array.map (fun impl -> Site_plan.make impl) bs.Blockswap.bs_impls in
  let nas = Pipeline.evaluate ~ctx device model ~plans:nas_plans in
  let baseline = Pipeline.baseline ~ctx device model in
  Format.fprintf ppf "TVM baseline : %a@." Exp_common.pp_us baseline.Pipeline.ev_latency_s;
  Format.fprintf ppf "NAS baseline : %a (%.2fx)@.@." Exp_common.pp_us
    nas.Pipeline.ev_latency_s
    (baseline.Pipeline.ev_latency_s /. nas.Pipeline.ev_latency_s);

  (* The unified search. *)
  let r =
    Unified_search.search ~candidates:250 ~ctx ~rng:(Rng.split rng) ~device ~probe model
  in
  Format.fprintf ppf "Unified      : %a (%.2fx), %d/%d candidates rejected by Fisher, %a wall@.@."
    Exp_common.pp_us r.Unified_search.r_best.Unified_search.cd_latency_s
    (Unified_search.speedup r) r.r_rejected r.r_explored Timing.pp_seconds r.r_wall_s;

  Format.fprintf ppf "winning configuration (site -> decision):@.";
  Array.iteri
    (fun i (p : Site_plan.t) ->
      let site = model.Models.sites.(i) in
      let scaled = Models.scale_site model site in
      Format.fprintf ppf "  %-16s %3dx%-4d %s@." site.Conv_impl.site_label
        scaled.Conv_impl.in_channels scaled.Conv_impl.out_channels
        (if p.Site_plan.sp_name = "baseline" then "-" else p.Site_plan.sp_name))
    r.r_best.cd_plans;
  Format.fprintf ppf "@.size: %.2fM -> %.2fM conv params (%.2fx compression)@."
    (float_of_int baseline.Pipeline.ev_params /. 1e6)
    (float_of_int r.r_best.cd_params /. 1e6)
    (float_of_int baseline.Pipeline.ev_params /. float_of_int (max 1 r.r_best.cd_params))
