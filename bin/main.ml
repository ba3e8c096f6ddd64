(* nas_pte: command-line driver for the unified NAS/program-transformation
   framework.

     nas_pte devices              list the modelled platforms
     nas_pte table1               print the transformation menu
     nas_pte search [opts]        run the unified search on a network
     nas_pte nas [opts]           run the BlockSwap NAS baseline
     nas_pte layers [opts]        per-layer sequence exploration (fig 6 style)
     nas_pte derive               show the spatial-bottleneck derivation *)

open Cmdliner

let ppf = Format.std_formatter

(* Bad user input must exit with a one-line diagnostic and code 2, never a
   raw Invalid_argument backtrace. *)
let die fmt = Format.kasprintf (fun msg -> prerr_endline ("nas_pte: " ^ msg); exit 2) fmt

(* Every network the CLI accepts comes from the zoo registry; there is no
   second list of names to keep in sync. *)
let config_of_name name =
  match Zoo.find name with
  | Some e -> e.Zoo.ze_spec `Search
  | None -> die "unknown network %s (valid: %s)" name Zoo.names_doc

let network_arg =
  let doc = "Network to optimize: " ^ Zoo.names_doc ^ "." in
  Arg.(value & opt string "resnet34" & info [ "n"; "network" ] ~docv:"NET" ~doc)

let device_arg =
  let doc = "Target device: CPU, GPU, mCPU or mGPU." in
  Arg.(value & opt string "CPU" & info [ "d"; "device" ] ~docv:"DEV" ~doc)

let candidates_arg =
  let doc = "Number of candidate configurations to explore." in
  Arg.(value & opt int 200 & info [ "c"; "candidates" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let resilient_arg =
  let doc =
    "Print the failure-attribution and cache report after the \
     search (quarantined candidates are always tolerated)."
  in
  Arg.(value & flag & info [ "resilient" ] ~doc)

let fault_rate_arg =
  let doc =
    "Deterministic fault-injection rate in [0,1]: each candidate's Fisher \
     score, predicted latency and plan generation are independently \
     corrupted with this probability (testing/hardening aid; default off)."
  in
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault-injection draws (default: the search seed)." in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let checkpoint_arg =
  let doc =
    "Checkpoint file: search progress is saved there periodically and an \
     interrupted run with the same parameters resumes instead of restarting."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH" ~doc)

let checkpoint_every_arg =
  let doc = "Candidates between checkpoint snapshots." in
  Arg.(value & opt int 25 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let budget_arg =
  let doc =
    "Stop (gracefully, saving a checkpoint if one is configured) after this \
     many candidate evaluations in this run."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)

let workers_arg =
  let doc =
    "Evaluate candidates on N parallel worker domains (default 1; must be \
     positive).  Any worker count returns the identical best candidate, \
     rejection count and quarantine list."
  in
  Arg.(value & opt int 1 & info [ "w"; "workers" ] ~docv:"N" ~doc)

let schedule_arg =
  let doc =
    "How parallel workers claim candidates: $(b,dynamic) (idle domains pull \
     the next unclaimed index — skewed candidate costs rebalance \
     automatically) or $(b,static) (fixed contiguous chunks).  Results are \
     bit-identical either way; only wall-clock differs.  Ignored when \
     --workers is 1.  See PERFORMANCE.md."
  in
  Arg.(
    value
    & opt (enum [ ("dynamic", Parallel_eval.Dynamic); ("static", Parallel_eval.Static) ])
        Parallel_eval.Dynamic
    & info [ "schedule" ] ~docv:"SCHED" ~doc)

let cache_cap_arg =
  let doc =
    "Capacity of the workload-cost memo cache (FIFO eviction; default 8192)."
  in
  Arg.(value & opt int 8192 & info [ "cache-cap" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write a JSONL trace of the search to this file: one event per line \
     (span_begin/span_end/note) covering the baseline, generate, evaluate \
     (with per-candidate legality/fisher/cost spans) and select phases.  \
     Trace content is identical for any --workers count."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the observability report after the search: the Fisher rejection \
     fraction next to the paper's ~90% claim, the per-phase time breakdown \
     and every collected counter."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let analyze_arg =
  let doc =
    "Do not search: run the static analyzer (dependence direction vectors, \
     shape/channel inference, access bounds) over every transformable site \
     of the network and print the diagnostics.  Exits 1 if any error-level \
     finding is reported."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let plan_arg =
  let doc =
    "With --analyze or --typecheck: analyze (or type-check) this explicit \
     transformation plan per site instead of the standard sequence menu.  \
     Steps separated by ';', e.g. 'split@1:2;interchange@1,2;unroll@5:4'."
  in
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"SPEC" ~doc)

let typecheck_arg =
  let doc =
    "With --plan: do not search — type-check the plan against every \
     distinct site shape of the network, printing the abstract schedule \
     environment after each step.  Exits 1 when the plan is ill-typed \
     anywhere, naming the violated typing rule."
  in
  Arg.(value & flag & info [ "typecheck" ] ~doc)

let strategy_arg =
  let doc =
    "Candidate-generation strategy: $(b,random) (the historical \
     rejection-sampled pool), $(b,typed) (well-typed-by-construction \
     candidates from the rule-inverted menus) or $(b,guided) (beam search \
     over the Pareto front of typed candidates)."
  in
  Arg.(value & opt string "random" & info [ "strategy" ] ~docv:"NAME" ~doc)

(* Probe a log/checkpoint destination before the search spends minutes of
   work: an unwritable path must be a usage error (exit 2) up front, not a
   warning at the first write.  The probe leaves existing files untouched
   and removes any file it had to create. *)
let ensure_writable flag path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error msg -> die "%s path is not writable: %s" flag msg

let device_of_name name =
  match Device.by_name name with
  | Some d -> d
  | None ->
      die "unknown device %s (valid: %s)" name
        (String.concat ", " (List.map (fun d -> d.Device.short_name) Device.all))

let devices_cmd =
  let run () =
    List.iter (fun d -> Format.fprintf ppf "%-5s  %a@." d.Device.short_name Device.pp d) Device.all
  in
  Cmd.v (Cmd.info "devices" ~doc:"List the modelled platforms") Term.(const run $ const ())

let table1_cmd =
  let run () = Exp_table1.run ppf in
  Cmd.v (Cmd.info "table1" ~doc:"Print the unified transformation menu") Term.(const run $ const ())

let analyze_model ppf model plan_spec =
  let plan =
    match plan_spec with
    | None -> None
    | Some spec -> (
        match Plan_lint.of_string spec with
        | Ok steps -> Some steps
        | Error msg -> die "--plan: %s" msg)
  in
  let reports = Static_check.analyze_model ?plan model in
  Format.fprintf ppf "@[<v>%a@]@." Static_check.pp_report reports;
  let errors = Static_check.report_errors reports in
  let unknown =
    List.length
      (List.filter
         (fun r ->
           match r.Static_check.sr_verdict with
           | Direction.Unknown _ -> true
           | _ -> false)
         reports)
  in
  Format.fprintf ppf "analyzed %d subjects: %d error findings, %d unknown verdicts@."
    (List.length reports) (List.length errors) unknown;
  if errors <> [] then exit 1

(* The --plan --typecheck mode: replay the typing judgment step by step
   against each distinct site shape, so an ill-typed plan names both the
   violated rule and the exact abstract state it was rejected in. *)
let typecheck_model ppf model plan_spec =
  let steps =
    match Plan_lint.of_string plan_spec with
    | Ok steps -> steps
    | Error msg -> die "--plan: %s" msg
  in
  let seen = Hashtbl.create 8 in
  let failed = ref false in
  let subjects = ref 0 in
  Array.iter
    (fun site ->
      let nest = Static_check.nest_of_site site in
      let env0 = Plan_types.env_of_nest nest in
      let key = Format.asprintf "%a" Plan_types.pp env0 in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        incr subjects;
        Format.fprintf ppf "@[<v2>%s:@,start        %a@]@."
          site.Conv_impl.site_label Plan_types.pp env0;
        let rec go env = function
          | [] -> (
              (* Per-step rules passed; close with T-Legal on the final
                 environment. *)
              match
                Plan_types.check ~deps:Static_check.conv_dependences env0 steps
              with
              | Ok _ -> Format.fprintf ppf "  well-typed@."
              | Error diags ->
                  failed := true;
                  Format.fprintf ppf "  ill-typed: violates T-Legal@.";
                  List.iter
                    (fun d -> Format.fprintf ppf "    %a@." Diagnostic.pp d)
                    diags)
          | step :: rest -> (
              match Plan_types.infer env step with
              | Ok env' ->
                  Format.fprintf ppf "  %-12s %a@." (Plan_lint.to_string step)
                    Plan_types.pp env';
                  go env' rest
              | Error diags ->
                  failed := true;
                  Format.fprintf ppf "  %-12s ill-typed: violates %s@."
                    (Plan_lint.to_string step)
                    (Plan_types.rule_name step);
                  List.iter
                    (fun d -> Format.fprintf ppf "    %a@." Diagnostic.pp d)
                    diags)
        in
        go env0 steps
      end)
    model.Models.sites;
  Format.fprintf ppf "type-checked %d distinct site shapes: %s@." !subjects
    (if !failed then "ill-typed" else "well-typed");
  if !failed then exit 1

let search_cmd =
  let run network device candidates seed resilient fault_rate fault_seed checkpoint
      checkpoint_every budget workers schedule cache_cap trace metrics analyze plan
      typecheck strategy =
    let strategy =
      match Strategy.of_string strategy with
      | Some t -> t
      | None ->
          die "--strategy must be one of %s (got %s)" Strategy.names_doc strategy
    in
    let dev = device_of_name device in
    let build_model () = Models.build (config_of_name network) (Rng.create seed) in
    if typecheck then begin
      if analyze then die "--typecheck and --analyze are mutually exclusive";
      match plan with
      | None -> die "--typecheck requires --plan"
      | Some spec ->
          let model = build_model () in
          Format.fprintf ppf "plan typing: %s for %s@." model.Models.name
            dev.Device.dev_name;
          typecheck_model ppf model spec
    end
    else if analyze then begin
      let model = build_model () in
      Format.fprintf ppf "static analysis: %s for %s@." model.Models.name
        dev.Device.dev_name;
      analyze_model ppf model plan
    end
    else begin
    if plan <> None then die "--plan requires --analyze or --typecheck";
    let job =
      Job.make ~network ~device ~candidates ~seed ~strategy ?budget ~workers ~schedule
        ~fault_rate ?fault_seed ()
    in
    (match Job.validate job with Ok () -> () | Error msg -> die "%s" msg);
    if checkpoint_every <= 0 then
      die "--checkpoint-every must be positive (got %d)" checkpoint_every;
    if cache_cap < 1 then die "--cache-cap must be >= 1";
    Option.iter (ensure_writable "--trace") trace;
    Option.iter (ensure_writable "--checkpoint") checkpoint;
    let obs =
      if trace <> None || metrics then Obs.create ?trace_file:trace ()
      else Obs.disabled
    in
    let fault = Job.fault job in
    let ctx = Eval_ctx.create ~cache_capacity:cache_cap ~fault ~obs () in
    (* Zoo names are the models' names: the header precedes the build. *)
    Format.fprintf ppf "unified search: %s on %s, %d candidates@." network
      dev.Device.dev_name candidates;
    if workers > 1 then
      Format.fprintf ppf "parallel evaluation: %d worker domains (%s scheduling)@."
        workers (Parallel_eval.schedule_name schedule);
    if Fault.enabled fault then
      Format.fprintf ppf "fault injection: rate %.0f%% per oracle per candidate@."
        (100.0 *. fault_rate);
    if strategy <> Strategy.Random then
      Format.fprintf ppf "strategy:  %s@." (Strategy.to_string strategy);
    let model, r = Job.run ~ctx ?checkpoint ~checkpoint_every job in
    (match r.Unified_search.r_checkpoint_error with
    | Some e ->
        Format.eprintf "nas_pte: warning: checkpoint not saved (%a); resume disabled@."
          Nas_error.pp e
    | None -> ());
    if not r.Unified_search.r_complete then
      Format.fprintf ppf "stopped on budget after %d evaluations%s@."
        r.Unified_search.r_evaluated
        (match checkpoint with
        | Some path -> Printf.sprintf " (progress saved to %s)" path
        | None -> "");
    Format.fprintf ppf "baseline:  %a  (%d paper-scale conv params)@." Exp_common.pp_us
      r.Unified_search.r_baseline.Pipeline.ev_latency_s
      r.r_baseline.Pipeline.ev_params;
    Format.fprintf ppf "best:      %a  (%.2fx speedup, %d params, %.2fx compression)@."
      Exp_common.pp_us r.r_best.Unified_search.cd_latency_s (Unified_search.speedup r)
      r.r_best.cd_params
      (float_of_int r.r_baseline.Pipeline.ev_params /. float_of_int (max 1 r.r_best.cd_params));
    Format.fprintf ppf "fisher:    %d of %d candidates rejected without training (%.0f%%)@."
      r.r_rejected r.r_explored
      (100.0 *. float_of_int r.r_rejected /. float_of_int (max 1 r.r_explored));
    let quarantined = List.length r.Unified_search.r_quarantined in
    if quarantined > 0 || resilient then begin
      Format.fprintf ppf "quarantine: %d of %d candidates failed and were set aside@."
        quarantined r.r_explored;
      List.iter
        (fun (cls, n) -> Format.fprintf ppf "  %-28s %d@." cls n)
        (Unified_search.quarantine_counts r)
    end;
    if resilient then begin
      let cs = Eval_ctx.cost_stats ctx in
      Format.fprintf ppf
        "pipeline cache: %d hits, %d misses, %d/%d entries (%d evicted)@."
        cs.Bounded_cache.cs_hits cs.cs_misses cs.cs_size cs.cs_capacity cs.cs_evictions;
      let fs = Eval_ctx.fisher_stats ctx in
      Format.fprintf ppf
        "fisher cache:   %d hits, %d misses, %d/%d entries (%d evicted)@."
        fs.Bounded_cache.cs_hits fs.cs_misses fs.cs_size fs.cs_capacity fs.cs_evictions
    end;
    Format.fprintf ppf "wall:      %a@." Timing.pp_seconds r.r_wall_s;
    if metrics then
      Format.fprintf ppf "@.%a" Report.pp
        (Report.of_metrics ~wall_s:r.r_wall_s (Obs.metrics obs));
    Obs.close obs;
    (match trace with
    | Some path ->
        Format.fprintf ppf "trace:     %d events written to %s@."
          (Trace_sink.length (Obs.sink obs)) path
    | None -> ());
    Format.fprintf ppf "@.winning per-site plans (transformed sites only):@.";
    Array.iteri
      (fun i (p : Site_plan.t) ->
        if p.Site_plan.sp_name <> "baseline" then
          Format.fprintf ppf "  %-18s %s@." model.Models.sites.(i).Conv_impl.site_label
            p.Site_plan.sp_name)
      r.r_best.cd_plans
    end
  in
  Cmd.v (Cmd.info "search" ~doc:"Run the unified transformation search")
    Term.(const run $ network_arg $ device_arg $ candidates_arg $ seed_arg
          $ resilient_arg $ fault_rate_arg $ fault_seed_arg $ checkpoint_arg
          $ checkpoint_every_arg $ budget_arg $ workers_arg $ schedule_arg
          $ cache_cap_arg $ trace_arg $ metrics_arg $ analyze_arg
          $ plan_arg $ typecheck_arg $ strategy_arg)

let nas_cmd =
  let run network device candidates seed =
    let rng = Rng.create seed in
    let model = Models.build (config_of_name network) rng in
    let dev = device_of_name device in
    let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
    let ctx = Eval_ctx.create () in
    let bs = Blockswap.search ~samples:candidates ~ctx ~rng:(Rng.split rng) ~probe model in
    let plans = Array.map (fun impl -> Site_plan.make impl) bs.Blockswap.bs_impls in
    let ev = Pipeline.evaluate ~ctx dev model ~plans in
    let base = Pipeline.baseline ~ctx dev model in
    Format.fprintf ppf "BlockSwap NAS baseline: %s on %s@." model.Models.name dev.Device.dev_name;
    Format.fprintf ppf "baseline %a -> NAS %a (%.2fx), params %d -> %d@."
      Exp_common.pp_us base.Pipeline.ev_latency_s Exp_common.pp_us ev.Pipeline.ev_latency_s
      (base.Pipeline.ev_latency_s /. ev.Pipeline.ev_latency_s)
      base.Pipeline.ev_params ev.Pipeline.ev_params
  in
  Cmd.v (Cmd.info "nas" ~doc:"Run the BlockSwap NAS baseline")
    Term.(const run $ network_arg $ device_arg $ candidates_arg $ seed_arg)

let layers_cmd =
  let run () = ignore (Fig6.run (Exp_common.mode_of_env ()) ppf) in
  Cmd.v (Cmd.info "layers" ~doc:"Layer-wise sequence exploration (Figure 6)")
    Term.(const run $ const ())

let roofline_cmd =
  let run device =
    let dev = device_of_name device in
    Format.fprintf ppf "roofline analysis on %a@.@." Device.pp dev;
    let shapes =
      [ ("64ch 32x32 k3 (dense)", 64, 64, 32, 3, 1);
        ("64ch 32x32 k3 depthwise", 64, 64, 32, 3, 64);
        ("256ch 8x8 k3 (late stage)", 256, 256, 8, 3, 1);
        ("256ch 8x8 1x1", 256, 256, 8, 1, 1) ]
    in
    List.iter
      (fun (name, co, ci, hw, k, groups) ->
        let nest =
          Loop_nest.conv_nest_of_dims ~co ~ci ~oh:hw ~ow:hw ~k ~stride:1 ~groups
        in
        let s, b = Autotune.tune dev nest in
        Format.fprintf ppf "%-28s %a@.  %a@." name Exp_common.pp_us
          b.Cost_model.total_s Roofline.pp (Roofline.analyze dev nest s))
      shapes
  in
  Cmd.v (Cmd.info "roofline" ~doc:"Roofline analysis of representative convolutions")
    Term.(const run $ device_arg)

let derive_cmd =
  let run () =
    Format.fprintf ppf "Spatial bottleneck as a transformation chain (sec 5.3):@.";
    let nest = Loop_nest.conv_nest_of_dims ~co:8 ~ci:8 ~oh:8 ~ow:8 ~k:3 ~stride:1 ~groups:1 in
    Format.fprintf ppf "@.original:@.%a@." Loop_nest.pp
      (Loop_nest.lower nest (Loop_nest.baseline_schedule nest));
    match Sequences.schedules (Sequences.Spatial_bneck 2) nest with
    | [ s ] ->
        Format.fprintf ppf "@.after [int -> B(2) -> int -> B(2) -> int]:@.%a@."
          Loop_nest.pp (Loop_nest.lower nest s);
        Format.fprintf ppf "@.schedule:@.%a@." Poly.pp s
    | _ -> ()
  in
  Cmd.v (Cmd.info "derive" ~doc:"Show the spatial-bottleneck derivation")
    Term.(const run $ const ())

let () =
  let info = Cmd.info "nas_pte" ~doc:"Neural architecture search as program transformation exploration" in
  let group = Cmd.group info [ devices_cmd; table1_cmd; search_cmd; nas_cmd; layers_cmd; derive_cmd; roofline_cmd ] in
  exit (Cmd.eval group)
