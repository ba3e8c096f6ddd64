type site_eval = {
  se_site : Conv_impl.site;
  se_plan : Site_plan.t;
  se_cost_s : float;
}

type evaluated = {
  ev_latency_s : float;
  ev_macs : int;
  ev_params : int;
  ev_sites : site_eval array;
  ev_fixed_cost_s : float;
}

let hints_key (h : Autotune.hints) =
  Printf.sprintf "u%s.s%s"
    (match h.Autotune.h_unroll_co with None -> "-" | Some f -> string_of_int f)
    (match h.h_spatial_split with None -> "-" | Some f -> string_of_int f)

let workload_key dev (w : Conv_impl.workload) hints =
  Printf.sprintf "%s|%d.%d.%d.%d.%d.%d|%s" dev.Device.short_name
    w.Conv_impl.w_in_channels w.w_out_channels w.w_kernel w.w_stride w.w_groups
    w.w_spatial (hints_key hints)

let workload_cost ~ctx ?(hints = Autotune.no_hints) dev w =
  let key = workload_key dev w hints in
  Bounded_cache.remember (Eval_ctx.cost_cache ctx) key (fun () ->
      (* Only memo misses pay the autotuner sweep, so this is the
         cost-model latency worth observing; clock reads are no-ops on a
         disabled recorder. *)
      let obs = Eval_ctx.obs ctx in
      let t0 = Obs.now obs in
      let out_sp = Conv_impl.workload_out_spatial w in
      let nest =
        Loop_nest.conv_nest_of_dims ~co:w.Conv_impl.w_out_channels
          ~ci:w.w_in_channels ~oh:out_sp ~ow:out_sp ~k:w.w_kernel ~stride:w.w_stride
          ~groups:w.w_groups
      in
      let _, breakdown = Autotune.tune ~hints dev nest in
      Eval_ctx.note_tune ctx (Autotune.configurations_tried dev nest);
      if not (Cost_model.is_finite breakdown) then
        Nas_error.fail (Nas_error.Non_finite Nas_error.Cost_model);
      let elems = w.w_out_channels * out_sp * out_sp in
      let cost = breakdown.Cost_model.total_s +. Cost_model.elementwise_time dev ~elems in
      let cost = Guard.check_float ~source:Nas_error.Cost_model cost in
      Obs.incr obs "pipeline.cost_evals";
      Obs.observe obs "time.cost_model_s" (Obs.now obs -. t0);
      cost)

let site_cost ~ctx dev site (plan : Site_plan.t) =
  if not (Conv_impl.valid site plan.Site_plan.sp_impl) then
    Nas_error.invalid_plan "site_cost: plan %s invalid for %s" plan.Site_plan.sp_name
      site.Conv_impl.site_label;
  List.fold_left
    (fun acc w -> acc +. workload_cost ~ctx ~hints:plan.Site_plan.sp_hints dev w)
    0.0
    (Conv_impl.workloads site plan.Site_plan.sp_impl)

(* Candidate-independent evaluation state, built once per search instead
   of once per candidate: the paper-scaled sites and the fixed (untrans-
   formable) workload list with its MAC/param totals.  Only the plan-
   dependent parts remain in the per-candidate path. *)
type prepared = {
  pp_sites : Conv_impl.site array;
  pp_fixed : Conv_impl.workload list;
  pp_fixed_macs : int;
  pp_fixed_params : int;
}

let prepare model =
  let pp_sites = Array.map (Models.scale_site model) model.Models.sites in
  (* Paper-scale fixed workloads = the fixed prefix of cost_workloads. *)
  let pp_fixed =
    let n_fixed = List.length model.Models.fixed_workloads in
    List.filteri (fun i _ -> i < n_fixed) (Models.cost_workloads model)
  in
  { pp_sites;
    pp_fixed;
    pp_fixed_macs =
      List.fold_left (fun acc w -> acc + Conv_impl.workload_macs w) 0 pp_fixed;
    pp_fixed_params =
      List.fold_left
        (fun acc w ->
          acc
          + (w.Conv_impl.w_in_channels * w.w_out_channels * w.w_kernel * w.w_kernel
            / w.w_groups))
        0 pp_fixed }

let evaluate_prepared ~ctx dev prep ~plans =
  if Array.length plans <> Array.length prep.pp_sites then
    Nas_error.shape_mismatch "evaluate: %d plans for %d sites (one plan per site)"
      (Array.length plans) (Array.length prep.pp_sites);
  let fixed_cost =
    List.fold_left (fun acc w -> acc +. workload_cost ~ctx dev w) 0.0 prep.pp_fixed
  in
  let site_evals =
    Array.mapi
      (fun i site ->
        { se_site = site;
          se_plan = plans.(i);
          se_cost_s = site_cost ~ctx dev site plans.(i) })
      prep.pp_sites
  in
  let latency =
    fixed_cost +. Array.fold_left (fun acc se -> acc +. se.se_cost_s) 0.0 site_evals
  in
  let macs =
    Array.fold_left
      (fun acc se -> acc + Conv_impl.macs se.se_site se.se_plan.Site_plan.sp_impl)
      prep.pp_fixed_macs site_evals
  in
  let params =
    Array.fold_left
      (fun acc se -> acc + Conv_impl.param_count se.se_site se.se_plan.Site_plan.sp_impl)
      prep.pp_fixed_params site_evals
  in
  { ev_latency_s = latency;
    ev_macs = macs;
    ev_params = params;
    ev_sites = site_evals;
    ev_fixed_cost_s = fixed_cost }

let evaluate ~ctx dev model ~plans = evaluate_prepared ~ctx dev (prepare model) ~plans

let baseline ~ctx dev model =
  evaluate ~ctx dev model
    ~plans:(Array.map (fun _ -> Site_plan.baseline) model.Models.sites)

let of_impls model = Array.map (fun impl -> Site_plan.make impl) model.Models.impls
