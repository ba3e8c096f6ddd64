let conv_dependences = Poly_legality.reduction_dependences [ "ci"; "kh"; "kw" ]

let nest_of_site (site : Conv_impl.site) =
  let so = Conv_impl.spatial_out site in
  { Loop_nest.nc_co = site.Conv_impl.out_channels;
    nc_ci = site.Conv_impl.in_channels;
    nc_oh = so;
    nc_ow = so;
    nc_kh = site.Conv_impl.kernel;
    nc_kw = site.Conv_impl.kernel;
    nc_stride = site.Conv_impl.stride;
    nc_groups = site.Conv_impl.groups }

(* The pre-Fisher candidate filter: the first site, in index order, whose
   implementation [Conv_impl.valid] rejects.  [None] means the candidate
   passes. *)
let candidate (model : Models.t) (plans : Site_plan.t array) =
  let n = Array.length plans in
  let rec scan i =
    if i >= n then None
    else
      let site = model.Models.sites.(i) and impl = plans.(i).Site_plan.sp_impl in
      if Conv_impl.valid site impl then scan (i + 1)
      else
        Some
          ( i,
            [ Diagnostic.error ~code:"illegal-transformation"
                "%s violates the side conditions of site %s" (Conv_impl.to_string impl)
                site.Conv_impl.site_label ] )
  in
  scan 0

type site_report = {
  sr_site : int;
  sr_label : string;
  sr_subject : string;
  sr_verdict : Direction.verdict;
  sr_diags : Diagnostic.t list;
}

(* The nest a schedule's neural log replays over, reconstructed from the
   schedule itself: base extents are the domain extents with bottleneck
   restrictions undone, and the group count starts at 1 because
   [Loop_nest.baseline_schedule] routes baseline grouping through the log
   too.  Sequences may legitimately build over a sub-nest (Seq3 halves the
   output channels), so the caller's nest only contributes the stride. *)
let replay_nest ~stride (s : Poly.t) =
  let base it =
    let e = match List.assoc_opt it s.Poly.domain with Some e -> e | None -> 1 in
    List.fold_left
      (fun acc op ->
        match op with
        | Poly.N_bottleneck { iter; factor } when iter = it -> acc * factor
        | _ -> acc)
      e s.Poly.neural_log
  in
  { Loop_nest.nc_co = base "co";
    nc_ci = base "ci";
    nc_oh = base "oh";
    nc_ow = base "ow";
    nc_kh = base "kh";
    nc_kw = base "kw";
    nc_stride = stride;
    nc_groups = 1 }

let report_of_schedule ~site ~label ~subject nest s =
  let shape = Shape_infer.check_schedule (replay_nest ~stride:nest.Loop_nest.nc_stride s) s in
  let bounds =
    match Loop_nest.lower nest s with
    | prog -> Shape_infer.bounds_check prog
    | exception Poly.Illegal msg ->
        [ Diagnostic.error ~code:"illegal-transformation" "lowering rejected: %s" msg ]
  in
  { sr_site = site;
    sr_label = label;
    sr_subject = subject;
    sr_verdict = Direction.check s conv_dependences;
    sr_diags = shape @ bounds }

(* Lint a chain over its base schedule and analyze the schedule it
   reaches, or report [on_fail] of the lint findings when it does not
   apply: the one path for [--plan] and the menu sequences. *)
let analyze_chain ~site ~label ~subject ~on_fail nest base steps =
  match Plan_types.lint base steps with
  | Some s, diags ->
      let r = report_of_schedule ~site ~label ~subject nest s in
      { r with sr_diags = diags @ r.sr_diags }
  | None, diags ->
      let verdict, diags = on_fail diags in
      { sr_site = site; sr_label = label; sr_subject = subject; sr_verdict = verdict;
        sr_diags = diags }

let analyze_plan ~site ~label nest steps =
  analyze_chain ~site ~label ~subject:("plan " ^ Plan_lint.plan_to_string steps)
    ~on_fail:(fun diags -> (Direction.Unknown "plan did not apply cleanly", diags))
    nest (Loop_nest.baseline_schedule nest) steps

let analyze_sequences ~site ~label nest =
  let plain_site =
    (* [Sequences.standard_menu] expects the untransformed site. *)
    { Conv_impl.site_index = site;
      in_channels = nest.Loop_nest.nc_ci;
      out_channels = nest.Loop_nest.nc_co;
      kernel = nest.Loop_nest.nc_kh;
      stride = nest.Loop_nest.nc_stride;
      groups = nest.Loop_nest.nc_groups;
      spatial_in = nest.Loop_nest.nc_oh * nest.Loop_nest.nc_stride;
      site_label = label }
  in
  (* A chain that does not type at the nest is one inapplicable-sequence
     warning naming the violated rule (a failed lint always holds an
     error), not an analysis failure. *)
  let inapplicable name diags =
    let reason = (List.find Diagnostic.is_error diags).Diagnostic.d_msg in
    ( Direction.Unknown "sequence did not apply to this nest",
      [ Diagnostic.warn ~code:"inapplicable-sequence" "sequence %s does not apply: %s" name
          reason ] )
  in
  (* Chains are derived over the ungrouped nest: the menu above is already
     filtered by the site's real grouping, but the §7.3 chains' loop
     positions are those of the ungrouped baseline.  The legality of the
     transformation chain itself is unaffected. *)
  let derive_nest = { nest with Loop_nest.nc_groups = 1 } in
  List.concat_map
    (fun seq ->
      let name = Sequences.name seq in
      let chains = Sequences.plans seq derive_nest in
      List.mapi
        (fun k (base, steps) ->
          let subject =
            if List.length chains > 1 then Printf.sprintf "%s[%d]" name k else name
          in
          analyze_chain ~site ~label ~subject ~on_fail:(inapplicable name) nest base steps)
        chains)
    (Sequences.standard_menu plain_site)

let analyze_model ?plan (model : Models.t) =
  Array.to_list model.Models.sites
  |> List.concat_map (fun (site : Conv_impl.site) ->
         let nest = nest_of_site site in
         let label = site.Conv_impl.site_label in
         let idx = site.Conv_impl.site_index in
         let site_diags =
           match Loop_nest.baseline_schedule nest with
           | s ->
               Shape_infer.check_schedule
                 (replay_nest ~stride:nest.Loop_nest.nc_stride s)
                 s
           | exception Poly.Illegal msg ->
               [ Diagnostic.error ~code:"illegal-transformation"
                   "baseline schedule rejected: %s" msg ]
         in
         let head =
           if site_diags = [] then []
           else
             [ { sr_site = idx;
                 sr_label = label;
                 sr_subject = "site";
                 sr_verdict = Direction.Legal;
                 sr_diags = site_diags } ]
         in
         head
         @
         match plan with
         | Some steps -> [ analyze_plan ~site:idx ~label nest steps ]
         | None -> analyze_sequences ~site:idx ~label nest)

let report_errors reports =
  List.concat_map
    (fun r ->
      (match r.sr_verdict with Direction.Illegal ds -> ds | _ -> [])
      @ Diagnostic.errors r.sr_diags)
    reports

let pp_report ppf reports =
  List.iter
    (fun r ->
      let verdict, vdiags =
        match r.sr_verdict with
        | Direction.Legal -> ("legal", [])
        | Direction.Unknown m -> ("unknown (" ^ m ^ ")", [])
        | Direction.Illegal ds -> ("illegal", ds)
      in
      Format.fprintf ppf "@[<v2>site %d (%s) · %s: %s" r.sr_site r.sr_label
        r.sr_subject verdict;
      List.iter (fun d -> Format.fprintf ppf "@,%a" Diagnostic.pp d)
        (vdiags @ r.sr_diags);
      Format.fprintf ppf "@]@,")
    reports
