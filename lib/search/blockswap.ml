type result = {
  bs_impls : Conv_impl.t array;
  bs_model : Models.t;
  bs_fisher : float;
  bs_params : int;
  bs_sampled : int;
}

let menu site =
  List.filter (Conv_impl.valid site)
    [ Conv_impl.Full; Conv_impl.Grouped 2; Conv_impl.Grouped 4; Conv_impl.Grouped 8;
      Conv_impl.Grouped 16; Conv_impl.Bottleneck 2;
      Conv_impl.Depthwise_separable ]

let paper_scale_params model impls =
  let fixed =
    List.fold_left
      (fun acc w ->
        acc
        + (w.Conv_impl.w_in_channels * w.w_out_channels * w.w_kernel * w.w_kernel
          / w.w_groups))
      0
      (let n = List.length model.Models.fixed_workloads in
       List.filteri (fun i _ -> i < n) (Models.cost_workloads model))
  in
  Array.to_list model.Models.sites
  |> List.fold_left
       (fun acc site ->
         acc
         + Conv_impl.param_count (Models.scale_site model site)
             impls.(site.Conv_impl.site_index))
       fixed

let site_params model impls =
  Array.to_list model.Models.sites
  |> List.fold_left
       (fun acc site ->
         acc
         + Conv_impl.param_count (Models.scale_site model site)
             impls.(site.Conv_impl.site_index))
       0

let search ?(samples = 200) ?(budget_ratio = 0.45) ?(slack = 0.12) ~ctx ~rng ~probe
    model =
  let obs = Eval_ctx.obs ctx in
  Obs.with_span obs "blockswap" @@ fun () ->
  let baseline_impls = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  (* The budget constrains the transformable convolutions; the fixed
     backbone (stems, shortcuts, transitions) is not substitutable. *)
  let budget =
    int_of_float (budget_ratio *. float_of_int (site_params model baseline_impls))
  in
  (* The search's Fisher oracle: a shared rebuild seed (candidates share the
     weights of common layers, so Fisher comparisons measure structure) and
     the memo keyed on the impl vector; random sampling revisits
     configurations, and a memo hit skips both the rebuild and the pass. *)
  let oracle = Unified_search.fisher_oracle ~ctx rng model probe in
  let score_of = Unified_search.fisher_scores ~ctx oracle in
  let baseline_scores = oracle.Unified_search.fo_reference in
  let best = ref None in
  let sampled = ref 0 in
  for _ = 1 to samples do
    let impls =
      Array.map
        (fun site ->
          match menu site with
          | [] -> Conv_impl.Full
          | options -> Rng.choice_list rng options)
        model.Models.sites
    in
    if site_params model impls <= budget then begin
      incr sampled;
      Obs.incr obs "blockswap.sampled";
      let scores = score_of impls in
      if Fisher.legal_clipped ~slack ~baseline:baseline_scores scores then begin
        let fisher = Fisher.clipped_total ~baseline:baseline_scores scores in
        match !best with
        | Some (_, f) when f >= fisher -> ()
        | _ -> best := Some (impls, fisher)
      end
      else Obs.incr obs "blockswap.fisher_rejected"
    end
    else Obs.incr obs "blockswap.budget_skipped"
  done;
  let impls, bs_fisher =
    match !best with
    | Some r -> r
    | None ->
        (* Budget unreachable within the legality constraint: keep the
           original network (the paper's ResNeXt case). *)
        (baseline_impls, baseline_scores.Fisher.total)
  in
  (* The winner's model is rebuilt once at the end (deterministic in the
     shared seed), so memo hits during the sweep never pay a rebuild. *)
  let bs_model =
    if impls == baseline_impls then model
    else Models.rebuild model (Rng.create oracle.fo_seed) impls
  in
  { bs_impls = impls;
    bs_model;
    bs_fisher;
    bs_params = paper_scale_params model impls;
    bs_sampled = !sampled }
