(* Search tests: the unified search, BlockSwap, Pareto utilities and the
   interpolation machinery.  Small candidate pools keep them fast. *)

let setup () =
  let rng = Rng.create 77 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  (rng, model, probe)

let result_fingerprint r =
  ( Unified_search.plans_signature r.Unified_search.r_best.Unified_search.cd_plans,
    r.Unified_search.r_best.Unified_search.cd_latency_s,
    r.Unified_search.r_explored,
    r.Unified_search.r_rejected,
    List.map fst r.Unified_search.r_quarantined )

let check_same_result msg a b =
  let sa, la, ea, ra, qa = result_fingerprint a in
  let sb, lb, eb, rb, qb = result_fingerprint b in
  Alcotest.(check string) (msg ^ ": best plans") sa sb;
  Alcotest.(check (float 0.0)) (msg ^ ": best latency (bit-identical)") la lb;
  Alcotest.(check int) (msg ^ ": explored") ea eb;
  Alcotest.(check int) (msg ^ ": rejected") ra rb;
  Alcotest.(check (list string)) (msg ^ ": quarantine") qa qb

let t_unified_improves_or_equals_baseline () =
  let rng, model, probe = setup () in
  let r =
    Unified_search.search ~candidates:40 ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  Alcotest.(check bool) "speedup >= 1" true (Unified_search.speedup r >= 1.0);
  Alcotest.(check bool) "accounting" true
    (r.Unified_search.r_rejected <= r.r_explored)

let t_unified_deterministic () =
  let run () =
    let rng, model, probe = setup () in
    let r =
      Unified_search.search ~candidates:25 ~ctx:(Eval_ctx.create ())
        ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
    in
    r.Unified_search.r_best.Unified_search.cd_latency_s
  in
  Alcotest.(check (float 1e-12)) "same seed, same result" (run ()) (run ())

(* The reference for [Job.run]: the seed -> model -> probe -> search
   recipe threaded by hand, with the fault plan built by hand too.  Drift
   in [Job.run]'s rng threading, probe, argument pass-through or
   [Job.fault] changes the winner, a [search.*] counter or the quarantine
   list.  The fault-free runs matter: injected faults can mask a swapped
   probe stream. *)
let t_job_run_matches_recipe () =
  let search_counters obs =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"search." k)
      (Metrics.counters (Obs.metrics obs))
  in
  let seed = 7 and candidates = 12 in
  List.iter
    (fun (strategy, workers, fault_rate) ->
      let msg =
        Printf.sprintf "%s workers=%d fault_rate=%g" (Strategy.to_string strategy)
          workers fault_rate
      in
      let ref_obs = Obs.create () in
      let reference =
        let fault =
          if fault_rate > 0.0 then Fault.make ~seed:11 ~rate:fault_rate () else Fault.none
        in
        let ctx = Eval_ctx.create ~fault ~obs:ref_obs () in
        let rng = Rng.create seed in
        let model = Models.build (Models.resnet18 ()) rng in
        let probe =
          Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size
        in
        Unified_search.search ~candidates ~workers ~strategy ~ctx ~rng:(Rng.split rng)
          ~device:Device.i7 ~probe model
      in
      let job =
        Job.make ~network:"resnet18" ~device:"CPU" ~seed ~candidates ~strategy ~workers
          ~fault_rate ~fault_seed:11 ()
      in
      let obs = Obs.create () in
      let _, r = Job.run ~ctx:(Eval_ctx.create ~fault:(Job.fault job) ~obs ()) job in
      check_same_result msg reference r;
      Alcotest.(check bool) (msg ^ ": quarantine only under faults") (fault_rate > 0.0)
        (reference.Unified_search.r_quarantined <> []);
      Alcotest.(check (list (pair string int))) (msg ^ ": search counters")
        (search_counters ref_obs) (search_counters obs))
    (List.concat_map
       (fun fault_rate ->
         [ (Strategy.Random, 1, fault_rate); (Strategy.Random, 2, fault_rate);
           (Strategy.Guided, 1, fault_rate); (Strategy.Guided, 2, fault_rate) ])
       [ 0.0; 0.3 ])

let t_unified_multi_matches_single_pool () =
  let rng, model, probe = setup () in
  let results =
    Unified_search.search_multi ~candidates:25 ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split rng) ~devices:[ Device.i7; Device.maxwell_mgpu ] ~probe model
  in
  Alcotest.(check int) "one result per device" 2 (List.length results);
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "baseline >= best" true
        (r.Unified_search.r_baseline.Pipeline.ev_latency_s
        >= r.r_best.Unified_search.cd_latency_s))
    results;
  (* The Fisher-filter statistics are shared between devices. *)
  (match results with
  | [ (_, a); (_, b) ] ->
      Alcotest.(check int) "shared rejections" a.Unified_search.r_rejected
        b.Unified_search.r_rejected
  | _ -> ());
  (* Each device's row is exactly a standalone search on a fresh context. *)
  List.iter
    (fun (device, r) ->
      let rng, model, probe = setup () in
      let single =
        Unified_search.search ~candidates:25 ~ctx:(Eval_ctx.create ())
          ~rng:(Rng.split rng) ~device ~probe model
      in
      check_same_result ("multi = single on " ^ device.Device.short_name) single r)
    results

let t_winning_plans_are_legal () =
  let rng, model, probe = setup () in
  let r =
    Unified_search.search ~candidates:30 ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "valid plan" true
        (Conv_impl.valid model.Models.sites.(i) p.Site_plan.sp_impl))
    r.Unified_search.r_best.Unified_search.cd_plans

let t_blockswap_respects_budget () =
  let rng, model, probe = setup () in
  let bs =
    Blockswap.search ~samples:40 ~budget_ratio:0.5 ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split rng) ~probe model
  in
  (* Either the budget was met or the fallback (original) was returned. *)
  let site_params impls =
    Array.to_list model.Models.sites
    |> List.fold_left
         (fun acc s ->
           acc
           + Conv_impl.param_count (Models.scale_site model s)
               impls.(s.Conv_impl.site_index))
         0
  in
  let full = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  let is_fallback = bs.Blockswap.bs_impls = full in
  Alcotest.(check bool) "budget or fallback" true
    (is_fallback
    || site_params bs.Blockswap.bs_impls
       <= int_of_float (0.5 *. float_of_int (site_params full)))

let t_blockswap_menu_excludes_sequences () =
  let _, model, _ = setup () in
  Array.iter
    (fun site ->
      List.iter
        (fun impl ->
          match impl with
          | Conv_impl.Split_grouped _ | Conv_impl.Spatial_bottleneck _ ->
              Alcotest.fail "sequence operators must not be in the NAS menu"
          | _ -> ())
        (Blockswap.menu site))
    model.Models.sites

(* --- strategies --------------------------------------------------------- *)

let run_strategy ?strategy ~workers ~schedule ~candidates () =
  let rng, model, probe = setup () in
  Unified_search.search ?strategy ~candidates ~workers ~schedule
    ~ctx:(Eval_ctx.create ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe model

let t_strategy_random_bit_identical () =
  (* The contract behind Strategy.Random: passing it explicitly changes
     nothing relative to the pre-strategy default, for any worker count or
     schedule. *)
  let reference =
    run_strategy ~workers:1 ~schedule:Parallel_eval.Dynamic ~candidates:25 ()
  in
  List.iter
    (fun (workers, schedule) ->
      let r =
        run_strategy ~strategy:Strategy.Random ~workers ~schedule
          ~candidates:25 ()
      in
      check_same_result
        (Printf.sprintf "workers=%d" workers)
        reference r)
    [ (1, Parallel_eval.Dynamic); (2, Parallel_eval.Static);
      (2, Parallel_eval.Dynamic) ]

let t_strategy_typed_parallel_identical () =
  let serial =
    run_strategy ~strategy:Strategy.Typed ~workers:1
      ~schedule:Parallel_eval.Dynamic ~candidates:25 ()
  in
  List.iter
    (fun schedule ->
      let r =
        run_strategy ~strategy:Strategy.Typed ~workers:2 ~schedule
          ~candidates:25 ()
      in
      check_same_result "typed parallel" serial r)
    [ Parallel_eval.Static; Parallel_eval.Dynamic ]

let t_strategy_guided_parallel_identical () =
  let serial =
    run_strategy ~strategy:Strategy.Guided ~workers:1
      ~schedule:Parallel_eval.Dynamic ~candidates:20 ()
  in
  Alcotest.(check bool) "guided run completes" true
    serial.Unified_search.r_complete;
  Alcotest.(check bool) "no checkpoint error" true
    (serial.Unified_search.r_checkpoint_error = None);
  List.iter
    (fun schedule ->
      let r =
        run_strategy ~strategy:Strategy.Guided ~workers:2 ~schedule
          ~candidates:20 ()
      in
      check_same_result "guided parallel" serial r)
    [ Parallel_eval.Static; Parallel_eval.Dynamic ]

let t_guided_budget_incomplete () =
  (* A budget below [candidates] caps the run short of its target, so the
     run is incomplete; a budget at the target is not a cap. *)
  List.iter
    (fun workers ->
      let run budget =
        let rng, model, probe = setup () in
        Unified_search.search ~strategy:Strategy.Guided ~candidates:20 ~budget ~workers
          ~ctx:(Eval_ctx.create ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
      in
      let msg s = Printf.sprintf "workers=%d: %s" workers s in
      let capped = run 7 in
      Alcotest.(check bool) (msg "budget-capped run incomplete") false
        capped.Unified_search.r_complete;
      Alcotest.(check int) (msg "evaluated up to the budget") 7
        capped.Unified_search.r_evaluated;
      Alcotest.(check bool) (msg "budget at the target completes") true
        (run 20).Unified_search.r_complete)
    [ 1; 2 ]

let t_strategy_gate () =
  (* At equal seed, device and candidate count, the typed and guided
     generators keep more candidates past the Fisher check and quarantine
     than random sampling, with a best latency no worse. *)
  let run strategy =
    let rng = Rng.create 7 in
    let model = Models.build (Models.resnet18 ()) rng in
    let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
    let r =
      Unified_search.search ~candidates:60 ~strategy ~ctx:(Eval_ctx.create ())
        ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
    in
    ( r.Unified_search.r_explored - r.r_rejected - List.length r.r_quarantined,
      r.r_best.Unified_search.cd_latency_s )
  in
  let random_survivors, random_best = run Strategy.Random in
  List.iter
    (fun strategy ->
      let survivors, best = run strategy in
      let name = Strategy.to_string strategy in
      Alcotest.(check bool)
        (Printf.sprintf "%s survivors %d > random's %d" name survivors random_survivors)
        true
        (survivors > random_survivors);
      Alcotest.(check bool)
        (Printf.sprintf "%s best %.6g s <= random's %.6g s" name best random_best)
        true (best <= random_best))
    [ Strategy.Typed; Strategy.Guided ]

(* The one valid [standard_menu] entry [typed_menu] leaves out: a split-2
   [Seq1] on an odd output plane, where the autotuner drops the split hint
   and [--analyze] reports the sequence inapplicable. *)
let odd_plane_seq1 site = function
  | Sequences.Seq1 { split = 2; _ } -> Conv_impl.spatial_out site mod 2 = 1
  | _ -> false

let t_typed_menu_valid_by_construction () =
  (* Over every site of every family at every scale, the derived menu is
     valid entry by entry and covers the valid slice of the standard menu
     except [odd_plane_seq1]. *)
  let excepted = ref 0 and excepted_sites = ref 0 in
  List.iter
    (fun (e : Zoo.entry) ->
      List.iter
        (fun scale ->
          let model = Models.build (e.Zoo.ze_spec scale) (Rng.create 42) in
          Array.iter
            (fun site ->
              let where seq =
                Printf.sprintf "%s site %d: %s" e.Zoo.ze_name site.Conv_impl.site_index
                  (Sequences.name seq)
              in
              let menu = Sequences.typed_menu site in
              List.iter
                (fun seq ->
                  Alcotest.(check bool) (where seq ^ " valid") true
                    (Sequences.valid site seq))
                menu;
              let missing =
                List.filter
                  (fun seq -> Sequences.valid site seq && not (List.mem seq menu))
                  (Sequences.standard_menu site)
              in
              List.iter
                (fun seq ->
                  Alcotest.(check bool) (where seq ^ " is the odd-plane exception") true
                    (odd_plane_seq1 site seq))
                missing;
              if missing <> [] then incr excepted_sites;
              excepted := !excepted + List.length missing)
            model.Models.sites)
        [ `Search; `Train; `Imagenet ])
    Zoo.all;
  Alcotest.(check (pair int int)) "odd-plane exceptions (entries, sites)" (76, 50)
    (!excepted, !excepted_sites)

let t_typed_plans_valid_by_construction () =
  let _, model, _ = setup () in
  let rng = Rng.create 99 in
  for _ = 1 to 20 do
    let plans = Strategy.typed_plans rng model in
    Array.iteri
      (fun i p ->
        Alcotest.(check bool) "typed plan valid" true
          (Conv_impl.valid model.Models.sites.(i) p.Site_plan.sp_impl))
      plans
  done

(* --- Pareto ------------------------------------------------------------ *)

let pt name l a = { Pareto.pt_name = name; pt_latency_s = l; pt_accuracy = a }

let t_pareto_dominance () =
  Alcotest.(check bool) "strictly better" true
    (Pareto.dominates (pt "a" 1.0 0.9) (pt "b" 2.0 0.8));
  Alcotest.(check bool) "equal does not dominate" false
    (Pareto.dominates (pt "a" 1.0 0.9) (pt "b" 1.0 0.9));
  Alcotest.(check bool) "tradeoff" false
    (Pareto.dominates (pt "a" 1.0 0.7) (pt "b" 2.0 0.9))

let t_pareto_front () =
  let points =
    [ pt "slow-acc" 4.0 0.95; pt "fast-inacc" 1.0 0.7; pt "dominated" 4.5 0.9;
      pt "mid" 2.0 0.85 ]
  in
  let front = Pareto.front points in
  let names = List.map (fun p -> p.Pareto.pt_name) front in
  Alcotest.(check (list string)) "front sorted by latency"
    [ "fast-inacc"; "mid"; "slow-acc" ] names;
  Alcotest.(check bool) "dominated excluded" true
    (not (List.mem "dominated" names));
  Alcotest.(check bool) "membership test" true
    (Pareto.is_pareto_optimal (pt "mid" 2.0 0.85) points)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"pareto front points are mutually non-dominating" ~count:50
      (list_of_size (Gen.int_range 1 12)
         (pair (float_range 0.1 10.0) (float_range 0.0 1.0)))
      (fun raw ->
        let points = List.mapi (fun i (l, a) -> pt (string_of_int i) l a) raw in
        let front = Pareto.front points in
        List.for_all
          (fun p -> not (List.exists (fun q -> q <> p && Pareto.dominates q p) front))
          front);
    Test.make ~name:"random plans are always valid for their sites" ~count:25
      (int_range 0 10000)
      (fun seed ->
        let rng = Rng.create seed in
        let model = Models.build (Models.resnet18 ()) (Rng.create 7) in
        let plans = Unified_search.random_plans rng model ~mutate_prob:0.8 in
        Array.for_all2
          (fun site p -> Conv_impl.valid site p.Site_plan.sp_impl)
          model.Models.sites plans) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "search"
    [ ( "unified",
        [ quick "improves baseline" t_unified_improves_or_equals_baseline;
          quick "deterministic" t_unified_deterministic;
          quick "multi-device" t_unified_multi_matches_single_pool;
          quick "job = hand-threaded recipe" t_job_run_matches_recipe;
          quick "winner legality" t_winning_plans_are_legal ] );
      ( "strategy",
        [ quick "random bit-identical" t_strategy_random_bit_identical;
          quick "typed parallel identical" t_strategy_typed_parallel_identical;
          quick "guided parallel identical" t_strategy_guided_parallel_identical;
          quick "guided budget incomplete" t_guided_budget_incomplete;
          quick "survivor gate" t_strategy_gate;
          quick "typed menu valid" t_typed_menu_valid_by_construction;
          quick "typed plans valid" t_typed_plans_valid_by_construction ] );
      ( "blockswap",
        [ quick "budget" t_blockswap_respects_budget;
          quick "menu restricted" t_blockswap_menu_excludes_sequences ] );
      ( "pareto", [ quick "dominance" t_pareto_dominance; quick "front" t_pareto_front ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
