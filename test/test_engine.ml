(* Evaluation-engine tests: the bounded memo cache, explicit evaluation
   contexts (isolation, forks, cache warmth never changing a result), and
   the domain-parallel evaluator (index-ordered results, workers=1 vs
   workers=N determinism on a seeded search, with and without injected
   faults and budgets). *)

let test_workload co =
  { Conv_impl.w_in_channels = 4; w_out_channels = co; w_kernel = 3; w_stride = 1;
    w_groups = 1; w_spatial = 8; w_label = Printf.sprintf "eng-co%d" co }

let setup () =
  let rng = Rng.create 77 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  (rng, model, probe)

(* --- bounded cache ------------------------------------------------------ *)

let t_cache_fifo () =
  let c = Bounded_cache.create ~capacity:3 () in
  List.iter
    (fun k -> ignore (Bounded_cache.remember c k (fun () -> k)))
    [ "a"; "b"; "c"; "d"; "e" ];
  let s = Bounded_cache.stats c in
  Alcotest.(check bool) "size capped" true (s.Bounded_cache.cs_size <= 3);
  Alcotest.(check int) "five misses" 5 s.cs_misses;
  Alcotest.(check bool) "evictions happened" true (s.cs_evictions > 0);
  (* FIFO: the oldest keys are gone, the newest survive. *)
  Alcotest.(check (option string)) "oldest evicted" None (Bounded_cache.find_opt c "a");
  Alcotest.(check (option string)) "newest kept" (Some "e") (Bounded_cache.find_opt c "e")

let t_cache_stats_and_errors () =
  let c = Bounded_cache.create ~capacity:8 () in
  ignore (Bounded_cache.remember c "k" (fun () -> 1));
  ignore (Bounded_cache.remember c "k" (fun () -> 2));
  let s = Bounded_cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Bounded_cache.cs_misses;
  Alcotest.(check int) "one hit" 1 s.cs_hits;
  Alcotest.(check int) "hit returns cached value" 1
    (Bounded_cache.remember c "k" (fun () -> 3));
  (* A raising thunk counts as a miss and caches nothing. *)
  (try ignore (Bounded_cache.remember c "bad" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check (option int)) "failure not cached" None (Bounded_cache.find_opt c "bad")

let t_cache_absorb () =
  let a = Bounded_cache.create ~capacity:4 () in
  let b = Bounded_cache.create ~capacity:4 () in
  ignore (Bounded_cache.remember a "x" (fun () -> 0));
  ignore (Bounded_cache.remember b "y" (fun () -> 0));
  ignore (Bounded_cache.remember b "y" (fun () -> 0));
  Bounded_cache.absorb a (Bounded_cache.stats b);
  let s = Bounded_cache.stats a in
  Alcotest.(check int) "misses folded" 2 s.Bounded_cache.cs_misses;
  Alcotest.(check int) "hits folded" 1 s.cs_hits;
  Alcotest.(check int) "size untouched" 1 s.cs_size

(* --- context isolation ---------------------------------------------------- *)

let t_ctx_isolation () =
  let ctx1 = Eval_ctx.create () in
  let ctx2 = Eval_ctx.create () in
  let w = test_workload 5 in
  let a = Pipeline.workload_cost ~ctx:ctx1 Device.i7 w in
  let b = Pipeline.workload_cost ~ctx:ctx1 Device.i7 w in
  Alcotest.(check (float 0.0)) "memo is value-transparent" a b;
  Alcotest.(check int) "ctx1 hit" 1 (Eval_ctx.cost_stats ctx1).Bounded_cache.cs_hits;
  (* The second context must not see the first one's entries. *)
  let c = Pipeline.workload_cost ~ctx:ctx2 Device.i7 w in
  Alcotest.(check (float 1e-12)) "same value recomputed" a c;
  Alcotest.(check int) "ctx2 saw no hits" 0
    (Eval_ctx.cost_stats ctx2).Bounded_cache.cs_hits;
  Alcotest.(check int) "ctx2 missed" 1 (Eval_ctx.cost_stats ctx2).Bounded_cache.cs_misses;
  Alcotest.(check int) "ctx1 unaffected by ctx2" 1
    (Eval_ctx.cost_stats ctx1).Bounded_cache.cs_hits

let t_ctx_fork () =
  let parent =
    Eval_ctx.create ~cache_capacity:17 ~fisher_capacity:5
      ~fault:(Fault.make ~seed:3 ~rate:1.0 ()) ()
  in
  ignore (Pipeline.workload_cost ~ctx:parent Device.i7 (test_workload 7));
  let worker = Eval_ctx.fork parent in
  Alcotest.(check int) "fork starts empty" 0
    (Eval_ctx.cost_stats worker).Bounded_cache.cs_size;
  Alcotest.(check int) "cost capacity inherited" 17
    (Eval_ctx.cost_stats worker).Bounded_cache.cs_capacity;
  Alcotest.(check int) "fisher capacity inherited" 5
    (Eval_ctx.fisher_stats worker).Bounded_cache.cs_capacity;
  (* The forked fault plan draws identically but counts independently. *)
  Alcotest.(check bool) "fault copy trips like the parent"
    (Fault.trip (Eval_ctx.fault parent) ~key:9 Fault.Cost_oracle)
    (Fault.trip (Eval_ctx.fault worker) ~key:9 Fault.Cost_oracle);
  let parent_injected = Fault.injected (Eval_ctx.fault parent) in
  ignore (Pipeline.workload_cost ~ctx:worker Device.i7 (test_workload 7));
  ignore (Pipeline.workload_cost ~ctx:worker Device.i7 (test_workload 8));
  Eval_ctx.absorb_full parent worker;
  Alcotest.(check int) "worker telemetry folded into parent" 3
    (Eval_ctx.cost_stats parent).Bounded_cache.cs_misses;
  Alcotest.(check int) "worker's new entry merged into parent" 2
    (Eval_ctx.cost_stats parent).Bounded_cache.cs_size;
  Alcotest.(check int) "worker fault trips folded into parent"
    (parent_injected + Fault.injected (Eval_ctx.fault worker))
    (Fault.injected (Eval_ctx.fault parent))

(* Every Fisher pass runs in its context's arena.  A fork starts with an
   empty arena of its own; the parent's arena serves the reference pass
   and worker 0's candidates, and the forked worker's buffer takes reach
   the parent's [cache.arena.*] counters when the search ends. *)
let t_ctx_arena () =
  let rng = Rng.create 5 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  let obs = Obs.create () in
  let ctx = Eval_ctx.create ~obs () in
  ignore
    (Unified_search.search ~candidates:6 ~workers:2 ~ctx ~rng:(Rng.split rng)
       ~device:Device.i7 ~probe model);
  let empty = Arena.stats (Eval_ctx.arena (Eval_ctx.fork ctx)) in
  Alcotest.(check (list int)) "a fork's arena starts empty" [ 0; 0; 0 ]
    [ empty.as_bytes; empty.as_reused; empty.as_fresh ];
  let own = Arena.stats (Eval_ctx.arena ctx) in
  let counter = Metrics.counter (Obs.metrics obs) in
  Alcotest.(check bool) "the reference pass ran in the parent's arena" true (own.as_bytes > 0);
  Alcotest.(check int) "bytes held by the parent" own.as_bytes (counter "cache.arena.bytes");
  Alcotest.(check int) "fresh takes" own.as_fresh (counter "cache.arena.fresh");
  Alcotest.(check int) "reused takes" own.as_reused (counter "cache.arena.reused");
  Alcotest.(check bool) "workers' reuse folded in" true (own.as_reused > 0)

(* --- fisher memo bounding ------------------------------------------------ *)

let t_fisher_memo_bounded () =
  let rng, model, probe = setup () in
  let ctx = Eval_ctx.create ~fisher_capacity:4 () in
  let r =
    Unified_search.search ~candidates:20 ~ctx ~rng:(Rng.split rng) ~device:Device.i7
      ~probe model
  in
  Alcotest.(check bool) "search completed" true r.Unified_search.r_complete;
  let fs = Eval_ctx.fisher_stats ctx in
  Alcotest.(check bool) "fisher memo bounded" true (fs.Bounded_cache.cs_size <= 4);
  Alcotest.(check bool) "fisher memo evicted FIFO" true (fs.cs_evictions > 0);
  Alcotest.(check bool) "fisher memo was exercised" true (fs.cs_misses > 0)

(* --- fisher memo key ------------------------------------------------------ *)

(* The Fisher memo key names the network.  wideresnet16_4 and se_resnet14
   expose the same number of sites, so under one seed their candidates'
   plan signatures coincide: a key without the network served the first
   search's scores to the second.  The second search on the shared context
   must match a fresh context's run bit for bit. *)
let t_fisher_key_names_network () =
  let run ctx name =
    let rng = Rng.create 3 in
    let model = Models.build (Option.get (Zoo.spec name)) rng in
    let probe =
      Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size
    in
    Unified_search.search ~candidates:12 ~ctx ~rng:(Rng.split rng) ~device:Device.i7
      ~probe model
  in
  let shared = Eval_ctx.create () in
  ignore (run shared "se_resnet14");
  let after = run shared "wideresnet16_4" in
  let fresh = run (Eval_ctx.create ()) "wideresnet16_4" in
  let best r = r.Unified_search.r_best in
  Alcotest.(check string) "same winner"
    (Unified_search.plans_signature (best fresh).Unified_search.cd_plans)
    (Unified_search.plans_signature (best after).Unified_search.cd_plans);
  Alcotest.(check int) "same Fisher rejections" fresh.Unified_search.r_rejected
    after.Unified_search.r_rejected;
  Alcotest.(check int64) "same winner Fisher bits"
    (Int64.bits_of_float (best fresh).Unified_search.cd_fisher)
    (Int64.bits_of_float (best after).Unified_search.cd_fisher)

(* --- parallel evaluation ------------------------------------------------- *)

let t_map_range_order () =
  let ctx = Eval_ctx.create () in
  let out =
    Parallel_eval.with_workers ~workers:3 ~ctx (fun pool ->
        Parallel_eval.map_range pool ~first:10 ~limit:23 (fun _ i -> i))
  in
  Alcotest.(check (list int)) "index order preserved"
    (List.init 13 (fun i -> 10 + i))
    (Array.to_list out);
  Alcotest.(check int) "empty range" 0
    (Array.length
       (Parallel_eval.with_workers ~workers:4 ~ctx (fun pool ->
            Parallel_eval.map_range pool ~first:5 ~limit:5 (fun _ i -> i))))

let quarantine_fingerprint r =
  List.map
    (fun (sig_, e) -> (sig_, Nas_error.class_name e))
    r.Unified_search.r_quarantined

(* The deterministic counter namespace (DESIGN.md §7): bit-identical for
   every worker count. *)
let search_counters obs =
  List.filter
    (fun (k, _) -> String.starts_with ~prefix:"search." k)
    (Metrics.counters (Obs.metrics obs))

(* A seeded search under a live recorder; returns the result and its
   [search.*] counters. *)
let run_search ?fault ?budget ?schedule ~workers () =
  let rng, model, probe = setup () in
  let obs = Obs.create () in
  let r =
    Unified_search.search ~candidates:16 ?budget ?schedule ~workers
      ~ctx:(Eval_ctx.create ?fault ~obs ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe
      model
  in
  (r, search_counters obs)

let check_identical (a, ca) (b, cb) =
  Alcotest.(check string) "same best plans"
    (Unified_search.plans_signature a.Unified_search.r_best.Unified_search.cd_plans)
    (Unified_search.plans_signature b.Unified_search.r_best.Unified_search.cd_plans);
  Alcotest.(check (float 0.0)) "same best latency (bit-identical)"
    a.Unified_search.r_best.Unified_search.cd_latency_s
    b.Unified_search.r_best.Unified_search.cd_latency_s;
  Alcotest.(check (float 0.0)) "same best fisher (bit-identical)"
    a.Unified_search.r_best.Unified_search.cd_fisher
    b.Unified_search.r_best.Unified_search.cd_fisher;
  Alcotest.(check int) "same rejection count" a.Unified_search.r_rejected
    b.Unified_search.r_rejected;
  Alcotest.(check int) "same evaluated count" a.Unified_search.r_evaluated
    b.Unified_search.r_evaluated;
  Alcotest.(check (list (pair string string))) "same sorted quarantine"
    (quarantine_fingerprint a) (quarantine_fingerprint b);
  Alcotest.(check (list (pair string int))) "same search.* counters" ca cb

let t_parallel_determinism () =
  let a = run_search ~workers:1 () in
  let b = run_search ~workers:4 () in
  check_identical a b

let t_parallel_determinism_faulted () =
  (* Fault draws are pure in (seed, candidate, target), so the quarantine
     set must also be worker-count invariant. *)
  let fault () = Fault.make ~seed:11 ~rate:0.3 () in
  let a = run_search ~fault:(fault ()) ~workers:1 () in
  let b = run_search ~fault:(fault ()) ~workers:4 () in
  Alcotest.(check bool) "faults quarantined something" true
    ((fst a).Unified_search.r_quarantined <> []);
  check_identical a b

let t_parallel_budget () =
  let a = run_search ~budget:9 ~workers:1 () in
  let b = run_search ~budget:9 ~workers:4 () in
  Alcotest.(check bool) "budget stop reported" false (fst a).Unified_search.r_complete;
  Alcotest.(check int) "budget respected" 9 (fst a).Unified_search.r_evaluated;
  check_identical a b

let t_quarantine_sorted () =
  let r, _ = run_search ~fault:(Fault.make ~seed:5 ~rate:0.5 ()) ~workers:2 () in
  let sigs = List.map fst r.Unified_search.r_quarantined in
  Alcotest.(check (list string)) "quarantine sorted by signature"
    (List.sort compare sigs) sigs

(* A search forks its workers once and merges them into its context when
   it ends.  A [workers:2] run leaves the parent holding every Fisher entry
   the serial run holds, a repeat of the search on that context computes
   no Fisher score, and each injected fault is counted once. *)
let t_worker_entries_reach_parent () =
  let search ~workers ctx =
    let rng, model, probe = setup () in
    ignore
      (Unified_search.search ~candidates:16 ~workers ~ctx ~rng:(Rng.split rng)
         ~device:Device.i7 ~probe model)
  in
  let fisher ctx = Eval_ctx.fisher_stats ctx in
  let serial = Eval_ctx.create () in
  search ~workers:1 serial;
  let serial_size = (fisher serial).Bounded_cache.cs_size in
  Alcotest.(check bool) "the serial run memoized candidates" true (serial_size > 1);
  let faults_injected ~workers () =
    let obs = Obs.create () in
    let ctx = Eval_ctx.create ~fault:(Fault.make ~seed:11 ~rate:0.3 ()) ~obs () in
    search ~workers ctx;
    Metrics.counter (Obs.metrics obs) "engine.faults_injected"
  in
  let serial_faults = faults_injected ~workers:1 () in
  Alcotest.(check bool) "faults were injected" true (serial_faults > 0);
  let ctx = Eval_ctx.create () in
  search ~workers:2 ctx;
  Alcotest.(check int) "parent holds the serial run's Fisher entries" serial_size
    (fisher ctx).cs_size;
  let misses = (fisher ctx).cs_misses in
  search ~workers:2 ctx;
  Alcotest.(check int) "a repeated search adds no Fisher miss" misses (fisher ctx).cs_misses;
  Alcotest.(check int) "faults injected counted once" serial_faults
    (faults_injected ~workers:2 ())

(* --- cache warmth ---------------------------------------------------------- *)

(* A search on a fresh context must match the same search on a context
   that has just run a different seed, and on one warmed by [warm_from]
   with a finished run: memo entries are pure functions of their keys, so
   warm caches may only add hits.  Each run reports to its own recorder
   (a [with_obs] view keeps the warm caches), so the [search.*] counters
   are per run. *)
let seeded_search ctx seed =
  let rng = Rng.create seed in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  let obs = Obs.create () in
  let r =
    Unified_search.search ~candidates:12 ~ctx:(Eval_ctx.with_obs ctx obs)
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  (r, search_counters obs)

let t_warmth_never_changes_result () =
  let seeds = [ 1; 2; 3 ] in
  let fresh = List.map (fun s -> (s, Eval_ctx.create ())) seeds in
  let cold = List.map (fun (s, ctx) -> (s, seeded_search ctx s)) fresh in
  let check_same what seed (a, ca) (b, cb) =
    let msg m = Printf.sprintf "seed %d, %s: %s" seed what m in
    Alcotest.(check string) (msg "winner")
      (Unified_search.plans_signature a.Unified_search.r_best.Unified_search.cd_plans)
      (Unified_search.plans_signature b.Unified_search.r_best.Unified_search.cd_plans);
    Alcotest.(check int64) (msg "winner latency bits")
      (Int64.bits_of_float a.Unified_search.r_best.Unified_search.cd_latency_s)
      (Int64.bits_of_float b.Unified_search.r_best.Unified_search.cd_latency_s);
    Alcotest.(check int) (msg "rejected") a.r_rejected b.r_rejected;
    Alcotest.(check (list (pair string string))) (msg "quarantine")
      (quarantine_fingerprint a) (quarantine_fingerprint b);
    Alcotest.(check (list (pair string int))) (msg "search.* counters") ca cb
  in
  (* Warmed from the finished run of the same seed: every lookup can hit. *)
  List.iter
    (fun (s, src) ->
      let ctx = Eval_ctx.create () in
      ignore (Eval_ctx.warm_from ctx ~src);
      let warm = seeded_search ctx s in
      Alcotest.(check bool) "warm run hit the fisher memo" true
        ((Eval_ctx.fisher_stats ctx).Bounded_cache.cs_hits > 0);
      check_same "warm_from" s (List.assoc s cold) warm)
    fresh;
  (* On the context that has just run the next seed (its cost memo is warm
     for the same network). *)
  List.iter
    (fun s ->
      let other = List.assoc ((s mod 3) + 1) fresh in
      let hits0 = (Eval_ctx.cost_stats other).Bounded_cache.cs_hits in
      let after_other = seeded_search other s in
      Alcotest.(check bool) "reused context hit the cost memo" true
        ((Eval_ctx.cost_stats other).Bounded_cache.cs_hits > hits0);
      check_same "after another seed" s (List.assoc s cold) after_other)
    seeds

(* --- scheduler ----------------------------------------------------------- *)

(* Deterministic skewed per-item cost: every 3rd item burns ~20x longer.
   Whatever the timing does to the worker->item assignment, the result
   array must stay a pure function of the index. *)
let skewed_burn i =
  let reps = if i mod 3 = 0 then 20_000 else 1_000 in
  let x = ref (float_of_int (i + 1)) in
  for _ = 1 to reps do
    x := Float.rem (!x *. 1.0000001 +. sin !x) 1000.0
  done;
  !x

let map_skewed ?on_stats ~workers ~n () =
  let ctx = Eval_ctx.create () in
  Parallel_eval.with_workers ~workers ~ctx (fun pool ->
      Parallel_eval.map_range ?on_stats pool ~first:0 ~limit:n (fun _ i ->
          skewed_burn i))

let t_sched_skewed_costs () =
  let serial = map_skewed ~workers:1 ~n:30 () in
  List.iter
    (fun workers ->
      let out = map_skewed ~workers ~n:30 () in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "workers=%d bit-identical to serial" workers)
        serial out)
    [ 2; 4 ]

let t_sched_workers_exceed_items () =
  (* 8 workers over 3 items: the pool is clamped to the item count and
     every item still lands in its slot. *)
  let stats = ref None in
  let out =
    map_skewed ~on_stats:(fun s -> stats := Some s) ~workers:8 ~n:3 ()
  in
  Alcotest.(check (array (float 0.0))) "3 items despite 8 workers"
    (Array.init 3 skewed_burn) out;
  match !stats with
  | None -> Alcotest.fail "scheduler stats not delivered"
  | Some s ->
      Alcotest.(check bool) "worker pool clamped to item count" true
        (s.Parallel_eval.rs_workers <= 3);
      Alcotest.(check int) "per-worker items sum to the range" 3
        (Array.fold_left
           (fun acc w -> acc + w.Parallel_eval.ws_items)
           0 s.rs_worker)

let t_sched_items_exceed_workers () =
  let serial = map_skewed ~workers:1 ~n:64 () in
  let stats = ref None in
  let out = map_skewed ~on_stats:(fun s -> stats := Some s) ~workers:2 ~n:64 () in
  Alcotest.(check (array (float 0.0))) "64 items on 2 workers" serial out;
  match !stats with
  | None -> Alcotest.fail "scheduler stats not delivered"
  | Some s ->
      Alcotest.(check int) "all items accounted for" 64
        (Array.fold_left
           (fun acc w -> acc + w.Parallel_eval.ws_items)
           0 s.rs_worker)

let t_sched_stats_sanity () =
  let stats = ref None in
  ignore
    (map_skewed ~on_stats:(fun s -> stats := Some s) ~workers:4 ~n:24 ());
  (match !stats with
  | None -> Alcotest.fail "scheduler stats not delivered"
  | Some s ->
      Alcotest.(check int) "one stat row per worker" s.Parallel_eval.rs_workers
        (Array.length s.rs_worker);
      Alcotest.(check bool) "wall time measured" true (s.rs_wall_s >= 0.0);
      Array.iter
        (fun w ->
          Alcotest.(check bool) "steals bounded by items" true
            (w.Parallel_eval.ws_steals <= w.ws_items))
        s.rs_worker);
  (* workers=1 with a stats request still reports (serial path, 1 worker,
     no steals). *)
  let solo = ref None in
  ignore
    (map_skewed ~on_stats:(fun s -> solo := Some s) ~workers:1 ~n:5 ());
  match !solo with
  | None -> Alcotest.fail "workers=1 stats not delivered"
  | Some s ->
      Alcotest.(check int) "one worker" 1 s.Parallel_eval.rs_workers;
      Alcotest.(check int) "serial path steals nothing" 0
        s.rs_worker.(0).Parallel_eval.ws_steals;
      Alcotest.(check int) "serial path did every item" 5
        s.rs_worker.(0).Parallel_eval.ws_items

(* The serial search visits candidates in their static order; a 4-worker
   search given [~schedule:Dynamic], as the benchmark harness passes it,
   lets idle workers pull the next index.  The result must not differ. *)
let t_sched_search_static_dynamic () =
  let serial = run_search ~workers:1 () in
  let dynamic = run_search ~schedule:Parallel_eval.Dynamic ~workers:4 () in
  check_identical serial dynamic

let t_sched_faulted_budget () =
  (* Fault injection and a budget cap compose on 4 workers: the quarantine
     set and stop point stay bit-identical to serial. *)
  let fault () = Fault.make ~seed:11 ~rate:0.3 () in
  let serial = run_search ~fault:(fault ()) ~budget:9 ~workers:1 () in
  Alcotest.(check bool) "budget stop reported" false
    (fst serial).Unified_search.r_complete;
  check_identical serial (run_search ~fault:(fault ()) ~budget:9 ~workers:4 ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "engine"
    [ ( "bounded-cache",
        [ quick "fifo eviction" t_cache_fifo;
          quick "stats and error paths" t_cache_stats_and_errors;
          quick "absorb" t_cache_absorb ] );
      ( "eval-ctx",
        [ quick "isolation" t_ctx_isolation;
          quick "fork" t_ctx_fork;
          quick "arena" t_ctx_arena;
          quick "fisher memo bounded" t_fisher_memo_bounded;
          quick "fisher key names the network" t_fisher_key_names_network;
          quick "cache warmth never changes a result" t_warmth_never_changes_result ] );
      ( "parallel",
        [ quick "map_range order" t_map_range_order;
          quick "determinism" t_parallel_determinism;
          quick "determinism under faults" t_parallel_determinism_faulted;
          quick "determinism under budget" t_parallel_budget;
          quick "quarantine sorted" t_quarantine_sorted;
          quick "worker entries reach the parent" t_worker_entries_reach_parent ] );
      ( "scheduler",
        [ quick "skewed costs stay deterministic" t_sched_skewed_costs;
          quick "workers exceed items" t_sched_workers_exceed_items;
          quick "items exceed workers" t_sched_items_exceed_workers;
          quick "stats sanity" t_sched_stats_sanity;
          quick "search static vs dynamic" t_sched_search_static_dynamic;
          quick "faulted + budget runs" t_sched_faulted_budget ] ) ]
