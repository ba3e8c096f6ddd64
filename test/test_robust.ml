(* Robustness tests: the error taxonomy, numeric guards, deterministic
   fault injection, checkpoint round-trips, and the hardened unified
   search (NaN-guard quarantine, completion under injected faults,
   checkpoint/resume determinism at one and two workers, a stop in the
   middle of a parallel batch, snapshots from another seed ignored). *)

let setup ?(seed = 77) () =
  let rng = Rng.create seed in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  (rng, model, probe)

(* --- taxonomy ---------------------------------------------------------- *)

let t_error_classes () =
  let errs =
    [ Nas_error.Invalid_plan "p"; Shape_mismatch "s";
      Non_finite Nas_error.Fisher_score; Non_finite Nas_error.Cost_model;
      Injected_fault "f"; Checkpoint_error "c";
      Eval_failure "e" ]
  in
  let classes = List.map Nas_error.class_name errs in
  Alcotest.(check int) "classes distinct" (List.length errs)
    (List.length (List.sort_uniq compare classes));
  List.iter
    (fun e -> Alcotest.(check bool) "printable" true (String.length (Nas_error.to_string e) > 0))
    errs

let t_of_exn_classification () =
  let is cls = function Some e -> Nas_error.class_name e = cls | None -> false in
  Alcotest.(check bool) "structured passes through" true
    (is "invalid-plan" (Nas_error.of_exn (Nas_error.Fail (Invalid_plan "x"))));
  Alcotest.(check bool) "Invalid_argument mapped" true
    (is "eval-failure" (Nas_error.of_exn (Invalid_argument "x")));
  Alcotest.(check bool) "Failure mapped" true
    (is "eval-failure" (Nas_error.of_exn (Failure "x")));
  Alcotest.(check bool) "Division_by_zero mapped" true
    (is "eval-failure" (Nas_error.of_exn Division_by_zero));
  Alcotest.(check bool) "Out_of_memory not swallowed" true
    (Nas_error.of_exn Out_of_memory = None)

let t_guard_wrapper () =
  (match Nas_error.guard (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "ok value" 42 v
  | Error _ -> Alcotest.fail "guard failed a healthy thunk");
  (match Nas_error.guard (fun () -> Nas_error.fail (Non_finite Nas_error.Cost_model)) with
  | Ok _ -> Alcotest.fail "guard passed a failing thunk"
  | Error e ->
      Alcotest.(check string) "classified" "non-finite:cost-model" (Nas_error.class_name e));
  Alcotest.(check bool) "unclassified propagates" true
    (try ignore (Nas_error.guard (fun () -> raise Exit)); false with Exit -> true)

let t_count_classes () =
  let q =
    [ ("a", Nas_error.Non_finite Nas_error.Fisher_score);
      ("b", Nas_error.Non_finite Nas_error.Fisher_score);
      ("c", Nas_error.Invalid_plan "x") ]
  in
  Alcotest.(check (list (pair string int))) "sorted by count"
    [ ("non-finite:fisher-score", 2); ("invalid-plan", 1) ]
    (Nas_error.count_classes q)

(* --- numeric guards ----------------------------------------------------- *)

let t_guard_floats () =
  Alcotest.(check (float 0.0)) "finite passes" 1.5
    (Guard.check_float ~source:Nas_error.Cost_model 1.5);
  let rejects x =
    try ignore (Guard.check_float ~source:Nas_error.Fisher_score x); false
    with Nas_error.Fail (Non_finite Nas_error.Fisher_score) -> true
  in
  Alcotest.(check bool) "nan rejected" true (rejects Float.nan);
  Alcotest.(check bool) "inf rejected" true (rejects Float.infinity);
  Alcotest.(check bool) "neg-inf rejected" true (rejects Float.neg_infinity);
  Alcotest.(check bool) "array scan" false (Guard.all_finite [| 0.0; Float.nan |]);
  Alcotest.(check bool) "array finite" true (Guard.all_finite [| 0.0; -1.0; 3.5 |])

let t_fisher_finite () =
  Alcotest.(check bool) "finite scores" true
    (Fisher.finite { Fisher.per_site = [| 1.0; 2.0 |]; total = 3.0 });
  Alcotest.(check bool) "nan total" false
    (Fisher.finite { Fisher.per_site = [| 1.0 |]; total = Float.nan });
  Alcotest.(check bool) "nan site" false
    (Fisher.finite { Fisher.per_site = [| Float.nan |]; total = 1.0 })

(* --- fault injection ---------------------------------------------------- *)

let t_fault_deterministic () =
  let draws fault =
    List.init 50 (fun i -> Fault.trip fault ~key:i Fault.Fisher_oracle)
  in
  let a = draws (Fault.make ~seed:3 ~rate:0.4 ()) in
  let b = draws (Fault.make ~seed:3 ~rate:0.4 ()) in
  Alcotest.(check (list bool)) "same seed, same draws" a b;
  let c = draws (Fault.make ~seed:4 ~rate:0.4 ()) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let t_fault_rates () =
  let never = Fault.make ~seed:1 ~rate:0.0 () in
  let always = Fault.make ~seed:1 ~rate:1.0 () in
  Alcotest.(check bool) "rate 0 never trips" false
    (List.exists (fun i -> Fault.trip never ~key:i Fault.Cost_oracle) (List.init 20 Fun.id));
  Alcotest.(check bool) "rate 1 always trips" true
    (List.for_all (fun i -> Fault.trip always ~key:i Fault.Cost_oracle) (List.init 20 Fun.id));
  Alcotest.(check int) "trips counted" 20 (Fault.injected always);
  Alcotest.(check bool) "none disabled" false (Fault.enabled Fault.none);
  Alcotest.(check bool) "none never trips" false (Fault.trip Fault.none ~key:0 Fault.Plan_gen)

let t_fault_targets () =
  let only_fisher = Fault.make ~targets:[ Fault.Fisher_oracle ] ~seed:5 ~rate:1.0 () in
  Alcotest.(check bool) "selected target trips" true
    (Fault.trip only_fisher ~key:0 Fault.Fisher_oracle);
  Alcotest.(check bool) "other target spared" false
    (Fault.trip only_fisher ~key:0 Fault.Cost_oracle);
  Alcotest.(check bool) "corrupt returns nan" true
    (Float.is_nan (Fault.corrupt_float only_fisher ~key:1 Fault.Fisher_oracle 1.0));
  Alcotest.(check (float 0.0)) "corrupt spares" 1.0
    (Fault.corrupt_float only_fisher ~key:1 Fault.Cost_oracle 1.0)

(* --- checkpoint --------------------------------------------------------- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let t_checkpoint_roundtrip () =
  let path = tmp_path "nas_pte_test_ckpt.bin" in
  Checkpoint.remove ~path;
  let v = ("state", [ 1; 2; 3 ], 2.5) in
  (match Checkpoint.save ~path v with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  (match Checkpoint.load ~path with
  | Ok w ->
      let (s, l, f) : string * int list * float = w in
      Alcotest.(check string) "string field" "state" s;
      Alcotest.(check (list int)) "list field" [ 1; 2; 3 ] l;
      Alcotest.(check (float 0.0)) "float field" 2.5 f
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  Checkpoint.remove ~path;
  Alcotest.(check bool) "removed" false (Sys.file_exists path)

let t_checkpoint_rejects_garbage () =
  let missing =
    match Checkpoint.load ~path:(tmp_path "nas_pte_no_such_ckpt.bin") with
    | Error (Nas_error.Checkpoint_error _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing file is a structured error" true missing;
  let path = tmp_path "nas_pte_bad_ckpt.bin" in
  let oc = open_out_bin path in
  output_string oc "not a checkpoint";
  close_out oc;
  let bad =
    match Checkpoint.load ~path with
    | Error (Nas_error.Checkpoint_error _) -> true
    | _ -> false
  in
  Sys.remove path;
  Alcotest.(check bool) "bad magic is a structured error" true bad

let t_checkpoint_rejects_truncated () =
  (* A crash mid-write can leave a prefix of a valid snapshot (only via an
     external copy — the atomic writer itself never exposes one); loading
     it must be a structured error, not a crash or a half-read value. *)
  let path = tmp_path "nas_pte_trunc_ckpt.bin" in
  (match Checkpoint.save ~path ("state", [ 1; 2; 3 ], 2.5) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole / 2)));
  let truncated =
    match Checkpoint.load ~path with
    | Error (Nas_error.Checkpoint_error _) -> true
    | _ -> false
  in
  Sys.remove path;
  Alcotest.(check bool) "truncated file is a structured error" true truncated

(* --- hardened search ---------------------------------------------------- *)

let quarantine_has r signature =
  List.exists (fun (s, _) -> s = signature) r.Unified_search.r_quarantined

let t_search_nan_fisher_quarantined () =
  (* Every candidate's Fisher score is forced to NaN: each must be
     quarantined as non-finite, never selected; the search degrades to the
     baseline fallback instead of crashing or mis-ranking. *)
  let rng, model, probe = setup () in
  let fault = Fault.make ~targets:[ Fault.Fisher_oracle ] ~seed:9 ~rate:1.0 () in
  let r =
    Unified_search.search ~candidates:15 ~ctx:(Eval_ctx.create ~fault ())
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  Alcotest.(check bool) "completed" true r.Unified_search.r_complete;
  Alcotest.(check int) "all candidates quarantined" r.r_explored
    (List.length r.r_quarantined);
  List.iter
    (fun (_, e) ->
      Alcotest.(check string) "attributed to the fisher guard"
        "non-finite:fisher-score" (Nas_error.class_name e))
    r.r_quarantined;
  Alcotest.(check bool) "fallback is the baseline network" true
    (Array.for_all (fun p -> p.Site_plan.sp_name = "baseline") r.r_best.Unified_search.cd_plans);
  Alcotest.(check bool) "selected latency finite" true
    (Float.is_finite r.r_best.Unified_search.cd_latency_s)

let t_search_survives_30pct_faults () =
  let rng, model, probe = setup () in
  let fault = Fault.make ~seed:11 ~rate:0.3 () in
  let r =
    Unified_search.search ~candidates:30 ~ctx:(Eval_ctx.create ~fault ())
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  Alcotest.(check bool) "completed" true r.Unified_search.r_complete;
  Alcotest.(check bool) "some faults actually fired" true (Fault.injected fault > 0);
  Alcotest.(check bool) "quarantine non-empty" true (r.r_quarantined <> []);
  Alcotest.(check bool) "attribution counts match" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Unified_search.quarantine_counts r)
    = List.length r.r_quarantined);
  (* The survivor must be a valid, non-quarantined candidate. *)
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "winner plans valid" true
        (Conv_impl.valid model.Models.sites.(i) p.Site_plan.sp_impl))
    r.r_best.Unified_search.cd_plans;
  Alcotest.(check bool) "winner not quarantined" false
    (quarantine_has r (Unified_search.plans_signature r.r_best.Unified_search.cd_plans));
  Alcotest.(check bool) "winner latency finite" true
    (Float.is_finite r.r_best.Unified_search.cd_latency_s)

let t_search_fault_free_unchanged () =
  (* The supervised path with no faults must reproduce plain search results
     (same seed, same best). *)
  let run fault =
    let rng, model, probe = setup () in
    let r =
      Unified_search.search ~candidates:20 ~ctx:(Eval_ctx.create ?fault ())
        ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
    in
    r.Unified_search.r_best.Unified_search.cd_latency_s
  in
  Alcotest.(check (float 1e-12)) "fault layer off = identity" (run None)
    (run (Some Fault.none))

let t_search_checkpoint_resume () =
  let path = tmp_path "nas_pte_search_ckpt.bin" in
  (* Every run gets a fresh context, so the resumed run starts with cold
     caches: only the checkpoint carries state between runs. *)
  let run ?budget ?checkpoint ?stop ~workers () =
    let rng, model, probe = setup () in
    Unified_search.search ~candidates:20 ?budget ?checkpoint ~checkpoint_every:5 ?stop
      ~workers ~ctx:(Eval_ctx.create ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe
      model
  in
  List.iter
    (fun workers ->
      let msg s = Printf.sprintf "workers=%d: %s" workers s in
      Checkpoint.remove ~path;
      let full = run ~workers () in
      (* The hook never fires; it only looks for a snapshot on disk, which
         the first batch of five candidates leaves before the run ends. *)
      let saw_snapshot = Atomic.make false in
      let stop () =
        if Sys.file_exists path then Atomic.set saw_snapshot true;
        false
      in
      let partial = run ~budget:7 ~checkpoint:path ~stop ~workers () in
      Alcotest.(check bool) (msg "budget stop reported") false
        partial.Unified_search.r_complete;
      Alcotest.(check bool) (msg "snapshot saved mid-run") true (Atomic.get saw_snapshot);
      Alcotest.(check bool) (msg "checkpoint written") true (Sys.file_exists path);
      let resumed = run ~checkpoint:path ~workers () in
      Alcotest.(check bool) (msg "resumed run completes") true
        resumed.Unified_search.r_complete;
      Alcotest.(check bool) (msg "resume skips the explored prefix") true
        (resumed.Unified_search.r_evaluated < full.Unified_search.r_explored);
      Alcotest.(check (float 1e-12)) (msg "same best latency as uninterrupted")
        full.Unified_search.r_best.Unified_search.cd_latency_s
        resumed.Unified_search.r_best.Unified_search.cd_latency_s;
      Alcotest.(check string) (msg "same best plans as uninterrupted")
        (Unified_search.plans_signature full.Unified_search.r_best.Unified_search.cd_plans)
        (Unified_search.plans_signature
           resumed.Unified_search.r_best.Unified_search.cd_plans);
      Alcotest.(check int) (msg "same rejection accounting")
        full.Unified_search.r_rejected resumed.Unified_search.r_rejected)
    [ 1; 2 ];
  Checkpoint.remove ~path

(* A stop hook for two workers that fires at its 9th poll, after a pause:
   workers claim indices in turn, so while the polling worker waits, the
   other one finishes candidates past the one this poll skips. *)
let stop_mid_batch () =
  let polls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add polls 1 = 8 && (Unix.sleepf 0.2; true)

let t_search_stop_mid_batch_resume () =
  (* Two workers stop mid-batch ([stop_mid_batch]).  Stopping and resuming
     must add up to the uninterrupted run, with no candidate counted
     twice. *)
  let path = tmp_path "nas_pte_search_ckpt_stop.bin" in
  Checkpoint.remove ~path;
  let run ?checkpoint ?stop () =
    let rng, model, probe = setup () in
    Unified_search.search ~candidates:20 ?checkpoint ?stop ~workers:2
      ~ctx:(Eval_ctx.create ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  let full = run () in
  let partial = run ~checkpoint:path ~stop:(stop_mid_batch ()) () in
  Alcotest.(check bool) "stop reported" false partial.Unified_search.r_complete;
  let resumed = run ~checkpoint:path () in
  Checkpoint.remove ~path;
  Alcotest.(check int) "same rejections" full.Unified_search.r_rejected
    resumed.Unified_search.r_rejected;
  Alcotest.(check int) "every candidate evaluated once" full.Unified_search.r_evaluated
    (partial.Unified_search.r_evaluated + resumed.Unified_search.r_evaluated);
  Alcotest.(check string) "same best plans"
    (Unified_search.plans_signature full.Unified_search.r_best.Unified_search.cd_plans)
    (Unified_search.plans_signature resumed.Unified_search.r_best.Unified_search.cd_plans);
  Alcotest.(check (float 0.0)) "same best latency"
    full.Unified_search.r_best.Unified_search.cd_latency_s
    resumed.Unified_search.r_best.Unified_search.cd_latency_s

let t_search_stop_mid_batch_counters () =
  (* The same stop during a parallel batch: the other worker finishes
     candidates past the first skipped one, and the merge drops them.  The
     [search.*] counters must count exactly the outcomes the result
     keeps. *)
  let rng, model, probe = setup () in
  let obs = Obs.create () in
  let r =
    Unified_search.search ~candidates:20 ~stop:(stop_mid_batch ()) ~workers:2
      ~ctx:(Eval_ctx.create ~obs ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  let counter name = Metrics.counter (Obs.metrics obs) name in
  Alcotest.(check bool) "stop reported" false r.Unified_search.r_complete;
  Alcotest.(check int) "search.fisher_rejected = r_rejected" r.Unified_search.r_rejected
    (counter "search.fisher_rejected");
  Alcotest.(check int) "ranked + rejected + quarantined = r_evaluated"
    r.Unified_search.r_evaluated
    (counter "search.cost_ranked" + counter "search.fisher_rejected"
   + counter "search.quarantined")

let t_search_checkpoint_other_seed () =
  (* A snapshot left by a seed-7 run must not steer a seed-8 run: the
     seed-8 run starts fresh and equals an uninterrupted seed-8 run. *)
  let path = tmp_path "nas_pte_search_ckpt_seed.bin" in
  Checkpoint.remove ~path;
  let run ~seed ?budget ?checkpoint () =
    let rng, model, probe = setup ~seed () in
    Unified_search.search ~candidates:20 ?budget ?checkpoint ~checkpoint_every:5
      ~ctx:(Eval_ctx.create ()) ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  ignore (run ~seed:7 ~budget:7 ~checkpoint:path ());
  Alcotest.(check bool) "seed-7 snapshot written" true (Sys.file_exists path);
  let fresh = run ~seed:8 () in
  let other = run ~seed:8 ~checkpoint:path () in
  Checkpoint.remove ~path;
  Alcotest.(check int) "nothing resumed" fresh.Unified_search.r_evaluated
    other.Unified_search.r_evaluated;
  Alcotest.(check int) "same rejections" fresh.Unified_search.r_rejected
    other.Unified_search.r_rejected;
  Alcotest.(check string) "same best plans"
    (Unified_search.plans_signature fresh.Unified_search.r_best.Unified_search.cd_plans)
    (Unified_search.plans_signature other.Unified_search.r_best.Unified_search.cd_plans);
  Alcotest.(check (float 0.0)) "same best latency"
    fresh.Unified_search.r_best.Unified_search.cd_latency_s
    other.Unified_search.r_best.Unified_search.cd_latency_s;
  Alcotest.(check (list string)) "same quarantine"
    (List.map fst fresh.Unified_search.r_quarantined)
    (List.map fst other.Unified_search.r_quarantined)

(* --- bounded pipeline cache ---------------------------------------------- *)

let t_cache_bounded () =
  let ctx = Eval_ctx.create ~cache_capacity:4 () in
  let w co =
    { Conv_impl.w_in_channels = 4; w_out_channels = co; w_kernel = 3; w_stride = 1;
      w_groups = 1; w_spatial = 8; w_label = Printf.sprintf "test-co%d" co }
  in
  List.iter
    (fun co -> ignore (Pipeline.workload_cost ~ctx Device.i7 (w co)))
    [ 1; 2; 3; 4; 5; 6 ];
  let s = Eval_ctx.cost_stats ctx in
  Alcotest.(check bool) "size capped" true (s.Bounded_cache.cs_size <= 4);
  Alcotest.(check int) "all were misses" 6 s.cs_misses;
  Alcotest.(check bool) "evictions happened" true (s.cs_evictions > 0);
  (* Re-costing an evicted workload must reproduce the same value. *)
  let a = Pipeline.workload_cost ~ctx Device.i7 (w 1) in
  let b = Pipeline.workload_cost ~ctx:(Eval_ctx.create ()) Device.i7 (w 1) in
  Alcotest.(check (float 1e-12)) "eviction is value-transparent" a b

let t_cache_stats_counts () =
  let ctx = Eval_ctx.create () in
  let w =
    { Conv_impl.w_in_channels = 4; w_out_channels = 4; w_kernel = 3; w_stride = 1;
      w_groups = 1; w_spatial = 8; w_label = "test-stats" }
  in
  ignore (Pipeline.workload_cost ~ctx Device.i7 w);
  ignore (Pipeline.workload_cost ~ctx Device.i7 w);
  ignore (Pipeline.workload_cost ~ctx Device.i7 w);
  let s = Eval_ctx.cost_stats ctx in
  Alcotest.(check int) "one miss" 1 s.Bounded_cache.cs_misses;
  Alcotest.(check int) "two hits" 2 s.cs_hits;
  Alcotest.(check int) "one entry" 1 s.cs_size

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"fault draws are pure in (seed, key, target)" ~count:100
      (pair small_nat (int_range 0 10_000))
      (fun (seed, key) ->
        let t1 = Fault.make ~seed ~rate:0.5 () in
        let t2 = Fault.make ~seed ~rate:0.5 () in
        Fault.trip t1 ~key Fault.Cost_oracle = Fault.trip t2 ~key Fault.Cost_oracle);
    Test.make ~name:"guard accepts exactly the finite floats" ~count:100
      (oneof [ float; always Float.nan; always Float.infinity ])
      (fun x ->
        let guarded =
          try Float.is_finite (Guard.check_float ~source:Nas_error.Cost_model x)
          with Nas_error.Fail (Non_finite _) -> not (Float.is_finite x)
        in
        guarded) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "robust"
    [ ( "taxonomy",
        [ quick "classes" t_error_classes;
          quick "of_exn" t_of_exn_classification;
          quick "guard wrapper" t_guard_wrapper;
          quick "count_classes" t_count_classes ] );
      ( "guards",
        [ quick "floats" t_guard_floats; quick "fisher finite" t_fisher_finite ] );
      ( "fault",
        [ quick "deterministic" t_fault_deterministic;
          quick "rates" t_fault_rates;
          quick "targets" t_fault_targets ] );
      ( "checkpoint",
        [ quick "roundtrip" t_checkpoint_roundtrip;
          quick "garbage" t_checkpoint_rejects_garbage;
          quick "truncated" t_checkpoint_rejects_truncated ] );
      ( "search",
        [ quick "nan fisher quarantined" t_search_nan_fisher_quarantined;
          quick "survives 30% faults" t_search_survives_30pct_faults;
          quick "fault-free identity" t_search_fault_free_unchanged;
          quick "checkpoint resume" t_search_checkpoint_resume;
          quick "checkpoint from another seed" t_search_checkpoint_other_seed;
          quick "stop mid-batch then resume" t_search_stop_mid_batch_resume;
          quick "stop mid-batch counters" t_search_stop_mid_batch_counters ] );
      ( "cache",
        [ quick "bounded" t_cache_bounded; quick "stats" t_cache_stats_counts ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
