(* Search-throughput benchmark for the parallel evaluation engine.

   Runs the same seeded unified search serially and with a worker pool,
   reports candidates/sec for each configuration, and cross-checks that
   every configuration converged to the identical winner (the engine's
   determinism contract).  A synthetic uneven-workload section compares
   static chunking against the dynamic (atomic next-index) scheduler
   under skewed per-item costs.  Results land in BENCH_search.json;
   every field is documented in PERFORMANCE.md.

   Usage:  dune exec bench/search_bench.exe [-- [--smoke] [candidates]]

   --smoke runs a tiny (n<=8) determinism cross-check without writing
   BENCH_search.json — the CI-fast `dune build @bench-smoke` path.

   Note: speedup over serial requires actual cores; each run row carries
   [speedup_valid] (false when the run used more workers than the box
   has cores, so its speedup number measures oversubscription, not
   scaling) and the JSON records [available_cores]. *)

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv

let candidates =
  let positional =
    Array.to_list Sys.argv |> List.tl
    |> List.find_opt (fun a -> String.length a > 0 && a.[0] <> '-')
  in
  match positional with
  | Some s -> int_of_string s
  | None -> if smoke then 8 else 60

let seed = 7

let run_once ~workers ~schedule =
  let rng = Rng.create seed in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  let obs = Obs.create () in
  let ctx = Eval_ctx.create ~obs () in
  let sched_stats = ref None in
  let t0 = Unix.gettimeofday () in
  let r =
    Unified_search.search ~candidates ~workers ~schedule
      ~on_sched_stats:(fun s -> sched_stats := Some s)
      ~ctx ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  let dt = Unix.gettimeofday () -. t0 in
  (r, dt, obs, !sched_stats)

(* The deterministic counter namespace (see DESIGN.md §7): these must be
   bit-identical for every worker count. *)
let search_counters obs =
  List.filter
    (fun (k, _) -> String.length k >= 7 && String.sub k 0 7 = "search.")
    (Metrics.counters (Obs.metrics obs))

let json_int_array xs =
  "[" ^ String.concat ", " (List.map string_of_int (Array.to_list xs)) ^ "]"

let json_float_array xs =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%.4f") (Array.to_list xs)) ^ "]"

(* --- synthetic uneven workload ------------------------------------------ *)

(* Deterministic floating-point burn: [reps] rounds of transcendental work
   seeded by the item index, so every (schedule, workers) configuration
   computes the identical value per item.  Heavy items (every [heavy_every]th)
   burn [heavy_factor]x more — the skew static chunking cannot rebalance. *)
let burn ~reps i =
  let x = ref (float_of_int (i + 1)) in
  for _ = 1 to reps do
    x := Float.rem (!x *. 1.0000001 +. sin !x) 1000.0
  done;
  !x

let uneven_reps ~base ~heavy_every ~heavy_factor i =
  if i mod heavy_every = 0 then base * heavy_factor else base

type uneven_run = {
  ur_schedule : Parallel_eval.schedule;
  ur_workers : int;
  ur_seconds : float;
  ur_checksum : float;
  ur_stats : Parallel_eval.run_stats option;
}

let run_uneven ~items ~base ~heavy_every ~heavy_factor ~workers ~schedule =
  let ctx = Eval_ctx.create () in
  let stats = ref None in
  let t0 = Unix.gettimeofday () in
  let results =
    Parallel_eval.map_range ~schedule
      ~on_stats:(fun s -> stats := Some s)
      ~workers ~ctx ~first:0 ~limit:items
      (fun _wctx i -> burn ~reps:(uneven_reps ~base ~heavy_every ~heavy_factor i) i)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let checksum = Array.fold_left ( +. ) 0.0 results in
  { ur_schedule = schedule;
    ur_workers = workers;
    ur_seconds = dt;
    ur_checksum = checksum;
    ur_stats = !stats }

let uneven_section ~items ~base =
  let heavy_every = 4 and heavy_factor = 8 in
  let configs =
    [ (Parallel_eval.Static, 1); (Parallel_eval.Static, 2); (Parallel_eval.Static, 4);
      (Parallel_eval.Dynamic, 1); (Parallel_eval.Dynamic, 2); (Parallel_eval.Dynamic, 4) ]
  in
  let runs =
    List.map
      (fun (schedule, workers) ->
        run_uneven ~items ~base ~heavy_every ~heavy_factor ~workers ~schedule)
      configs
  in
  let reference = (List.hd runs).ur_checksum in
  List.iter
    (fun u ->
      if u.ur_checksum <> reference then (
        Printf.eprintf "UNEVEN DETERMINISM VIOLATION at %s workers=%d\n"
          (Parallel_eval.schedule_name u.ur_schedule)
          u.ur_workers;
        exit 1))
    runs;
  (heavy_every, heavy_factor, runs)

(* --- per-strategy comparison --------------------------------------------- *)

(* One serial search per strategy at the same budget/seed/device, so the
   rows differ only in candidate generation.  Survivor fraction counts
   candidates that passed both the Fisher gate and quarantine screening. *)
let strategy_run ~n strategy =
  let rng = Rng.create seed in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  let r =
    Unified_search.search ~candidates:n ~strategy ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
  in
  let survivors =
    r.Unified_search.r_explored - r.r_rejected - List.length r.r_quarantined
  in
  (r, float_of_int survivors /. float_of_int (max 1 r.r_explored))

(* --- smoke mode ---------------------------------------------------------- *)

let run_smoke () =
  let n = min candidates 8 in
  let runs =
    List.map
      (fun (workers, schedule) ->
        let rng = Rng.create seed in
        let model = Models.build (Models.resnet18 ()) rng in
        let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
        let obs = Obs.create () in
        let ctx = Eval_ctx.create ~obs () in
        let r =
          Unified_search.search ~candidates:n ~workers ~schedule ~ctx
            ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
        in
        (workers, schedule, r, obs))
      [ (1, Parallel_eval.Dynamic); (2, Parallel_eval.Static); (2, Parallel_eval.Dynamic) ]
  in
  let _, _, serial, serial_obs = List.hd runs in
  let serial_sig =
    Unified_search.plans_signature serial.Unified_search.r_best.Unified_search.cd_plans
  in
  List.iter
    (fun (workers, schedule, r, obs) ->
      let s =
        Unified_search.plans_signature r.Unified_search.r_best.Unified_search.cd_plans
      in
      if s <> serial_sig || search_counters obs <> search_counters serial_obs then (
        Printf.eprintf "bench smoke FAILED: workers=%d schedule=%s diverges\n" workers
          (Parallel_eval.schedule_name schedule);
        exit 1))
    runs;
  let _, _, uneven = uneven_section ~items:16 ~base:200 in
  ignore uneven;
  List.iter
    (fun st ->
      let r, frac = strategy_run ~n st in
      Printf.printf "strategy %-7s survivors=%.0f%% best=%.4fms\n%!"
        (Strategy.to_string st) (100.0 *. frac)
        (1000.0 *. r.Unified_search.r_best.Unified_search.cd_latency_s))
    Strategy.all;
  Printf.printf
    "bench smoke OK: %d candidates, serial/static/dynamic agree (no JSON written)\n%!"
    n;
  exit 0

(* --- full benchmark ------------------------------------------------------ *)

let () =
  if smoke then run_smoke ();
  let cores = Parallel_eval.available_workers () in
  let worker_counts = [ 1; 2; 4 ] in
  let runs =
    List.map
      (fun workers ->
        let r, dt, obs, sched = run_once ~workers ~schedule:Parallel_eval.Dynamic in
        let throughput = float_of_int r.Unified_search.r_evaluated /. dt in
        Printf.printf "workers=%d  %d candidates in %.2fs  (%.2f cand/s)\n%!"
          workers r.r_evaluated dt throughput;
        if workers > cores then
          Printf.eprintf
            "search_bench: warning: workers=%d exceeds the %d available core%s — \
             its speedup_vs_serial measures oversubscription, not scaling \
             (speedup_valid=false)\n%!"
            workers cores
            (if cores = 1 then "" else "s");
        (workers, r, dt, throughput, obs, sched))
      worker_counts
  in
  let _, serial, _, serial_tp, serial_obs, _ = List.hd runs in
  let serial_sig =
    Unified_search.plans_signature
      serial.Unified_search.r_best.Unified_search.cd_plans
  in
  List.iter
    (fun (workers, r, _, _, obs, _) ->
      let s =
        Unified_search.plans_signature r.Unified_search.r_best.Unified_search.cd_plans
      in
      if s <> serial_sig then (
        Printf.eprintf "DETERMINISM VIOLATION at workers=%d\n" workers;
        exit 1);
      if search_counters obs <> search_counters serial_obs then (
        Printf.eprintf "METRICS DETERMINISM VIOLATION at workers=%d\n" workers;
        exit 1))
    runs;
  Printf.printf "all worker counts agree on the winner and the search counters\n%!";
  let oc = open_out "BENCH_search.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"unified-search-throughput\",\n";
  Printf.fprintf oc "  \"model\": \"resnet18\",\n";
  Printf.fprintf oc "  \"candidates\": %d,\n" candidates;
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"schedule\": \"dynamic\",\n";
  Printf.fprintf oc "  \"available_cores\": %d,\n" cores;
  Printf.fprintf oc "  \"deterministic_across_workers\": true,\n";
  Printf.fprintf oc "  \"runs\": [\n";
  let n = List.length runs in
  List.iteri
    (fun i (workers, r, dt, tp, _, sched) ->
      let sched_fields =
        match sched with
        | None -> ""
        | Some (s : Parallel_eval.run_stats) ->
            Printf.sprintf
              ", \"worker_items\": %s, \"worker_steals\": %s, \
               \"worker_utilization\": %s"
              (json_int_array
                 (Array.map (fun w -> w.Parallel_eval.ws_items) s.rs_worker))
              (json_int_array
                 (Array.map (fun w -> w.Parallel_eval.ws_steals) s.rs_worker))
              (json_float_array (Parallel_eval.utilization s))
      in
      Printf.fprintf oc
        "    {\"workers\": %d, \"seconds\": %.3f, \"candidates_per_sec\": %.3f, \
         \"speedup_vs_serial\": %.3f, \"speedup_valid\": %b, \
         \"best_latency_ms\": %.4f, \"rejected\": %d, \"quarantined\": %d%s}%s\n"
        workers dt tp (tp /. serial_tp)
        (workers <= cores)
        (1000.0 *. r.Unified_search.r_best.Unified_search.cd_latency_s)
        r.r_rejected
        (List.length r.r_quarantined)
        sched_fields
        (if i = n - 1 then "" else ","))
    runs;
  Printf.fprintf oc "  ],\n";
  (* Synthetic uneven workload: every 4th item costs 8x, so a static chunk
     split leaves some domains idle while one grinds through the heavy
     tail; the dynamic scheduler rebalances automatically.  Checksums are
     cross-checked above — the rebalancing never changes results. *)
  let items = 64 and base = 20000 in
  let heavy_every, heavy_factor, uneven = uneven_section ~items ~base in
  let serial_uneven =
    List.find (fun u -> u.ur_workers = 1 && u.ur_schedule = Parallel_eval.Static) uneven
  in
  Printf.fprintf oc "  \"uneven_workload\": {\n";
  Printf.fprintf oc "    \"items\": %d,\n" items;
  Printf.fprintf oc "    \"heavy_every\": %d,\n" heavy_every;
  Printf.fprintf oc "    \"heavy_factor\": %d,\n" heavy_factor;
  Printf.fprintf oc "    \"deterministic_across_schedules\": true,\n";
  Printf.fprintf oc "    \"runs\": [\n";
  let nu = List.length uneven in
  List.iteri
    (fun i u ->
      Printf.printf "uneven %-7s workers=%d  %.3fs\n%!"
        (Parallel_eval.schedule_name u.ur_schedule)
        u.ur_workers u.ur_seconds;
      let sched_fields =
        match u.ur_stats with
        | None -> ""
        | Some s ->
            Printf.sprintf
              ", \"worker_items\": %s, \"worker_steals\": %s, \
               \"worker_utilization\": %s"
              (json_int_array
                 (Array.map (fun w -> w.Parallel_eval.ws_items) s.rs_worker))
              (json_int_array
                 (Array.map (fun w -> w.Parallel_eval.ws_steals) s.rs_worker))
              (json_float_array (Parallel_eval.utilization s))
      in
      Printf.fprintf oc
        "      {\"schedule\": \"%s\", \"workers\": %d, \"seconds\": %.4f, \
         \"speedup_vs_serial\": %.3f, \"speedup_valid\": %b%s}%s\n"
        (Parallel_eval.schedule_name u.ur_schedule)
        u.ur_workers u.ur_seconds
        (serial_uneven.ur_seconds /. u.ur_seconds)
        (u.ur_workers <= cores)
        sched_fields
        (if i = nu - 1 then "" else ","))
    uneven;
  Printf.fprintf oc "    ]\n";
  Printf.fprintf oc "  },\n";
  (* Per-family rows: the unified search run on every family the registry
     adds beyond the paper presets, at the default build seed.  Survivor
     fraction = candidates that passed Fisher and quarantine screening. *)
  let fam_candidates = 16 in
  let new_entries = List.filter (fun e -> not e.Zoo.ze_paper) Zoo.all in
  Printf.fprintf oc "  \"families\": [\n";
  let nf = List.length new_entries in
  List.iteri
    (fun i (e : Zoo.entry) ->
      let rng = Rng.create 42 in
      let model = Models.build (e.ze_spec `Search) rng in
      let probe =
        Exp_common.probe_batch (Rng.split rng)
          ~input_size:model.Models.input_size
      in
      let r =
        Unified_search.search ~candidates:fam_candidates ~ctx:(Eval_ctx.create ())
          ~rng:(Rng.split rng) ~device:Device.i7 ~probe model
      in
      let survivors =
        r.Unified_search.r_explored - r.r_rejected
        - List.length r.r_quarantined
      in
      let frac =
        float_of_int survivors /. float_of_int (max 1 r.r_explored)
      in
      Printf.printf "family %-16s sites=%d survivors=%d/%d best=%.4fms\n%!"
        e.ze_name
        (Array.length model.Models.sites)
        survivors r.r_explored
        (1000.0 *. r.r_best.Unified_search.cd_latency_s);
      Printf.fprintf oc
        "    {\"network\": \"%s\", \"sites\": %d, \"candidates\": %d, \
         \"survivor_fraction\": %.4f, \"best_latency_ms\": %.4f}%s\n"
        e.ze_name
        (Array.length model.Models.sites)
        fam_candidates frac
        (1000.0 *. r.Unified_search.r_best.Unified_search.cd_latency_s)
        (if i = nf - 1 then "" else ","))
    new_entries;
  Printf.fprintf oc "  ],\n";
  (* Per-strategy rows at the headline budget: identical seed, device and
     candidate count, so survivor fraction and best latency isolate the
     candidate generator.  The gate on them (typed and guided keep more
     survivors than random, with a best latency no worse) is test_search's
     "survivor gate". *)
  let strategy_rows = List.map (fun st -> (st, strategy_run ~n:candidates st)) Strategy.all in
  Printf.fprintf oc "  \"strategies\": [\n";
  let ns = List.length strategy_rows in
  List.iteri
    (fun i (st, (r, frac)) ->
      Printf.printf "strategy %-7s survivors=%.0f%% best=%.4fms\n%!"
        (Strategy.to_string st) (100.0 *. frac)
        (1000.0 *. r.Unified_search.r_best.Unified_search.cd_latency_s);
      Printf.fprintf oc
        "    {\"strategy\": \"%s\", \"candidates\": %d, \
         \"survivor_fraction\": %.4f, \"best_latency_ms\": %.4f, \
         \"speedup\": %.3f}%s\n"
        (Strategy.to_string st) candidates frac
        (1000.0 *. r.Unified_search.r_best.Unified_search.cd_latency_s)
        (Unified_search.speedup r)
        (if i = ns - 1 then "" else ","))
    strategy_rows;
  Printf.fprintf oc "  ],\n";
  (* Differential-sanitizer agreement rate: the static legality analyzer
     against the sampling oracle over the seeded fuzz corpus (the same
     corpus `dune build @sanitize` gates CI on). *)
  let sr = Sanitizer.run ~seed:2026 ~n:200 () in
  Printf.printf "sanitizer: %d plans, %d disagreements, %.1f%% unknown\n%!"
    sr.Sanitizer.rs_total
    (List.length sr.Sanitizer.rs_disagreements)
    (100.0 *. Sanitizer.unknown_rate sr);
  if not (Sanitizer.passed sr) then (
    Printf.eprintf "SANITIZER FAILURE: static analyzer diverges from the oracle\n";
    exit 1);
  Printf.fprintf oc
    "  \"sanitizer\": {\"plans\": %d, \"agree_legal\": %d, \"agree_illegal\": %d, \
     \"unknown\": %d, \"disagreements\": %d, \"agreement_rate\": %.4f, \
     \"unknown_rate\": %.4f, \"static_seconds\": %.4f, \"oracle_seconds\": %.4f},\n"
    sr.Sanitizer.rs_total sr.Sanitizer.rs_agree_legal sr.Sanitizer.rs_agree_illegal
    sr.Sanitizer.rs_unknown
    (List.length sr.Sanitizer.rs_disagreements)
    (1.0 -. Sanitizer.unknown_rate sr)
    (Sanitizer.unknown_rate sr)
    sr.Sanitizer.rs_static_time sr.Sanitizer.rs_oracle_time;
  (* Typed-vs-oracle differential fuzzer over the same corpus seed: both
     directions of the Plan_types exactness contract (the @typecheck-fuzz
     CI gate runs 1000 cases; the bench row records 200). *)
  let tr = Sanitizer.run_typed ~seed:2026 ~n:200 () in
  Printf.printf "typed fuzzer: %d cases, %d disagreements, %.1f%% unknown\n%!"
    tr.Sanitizer.tt_total
    (List.length tr.Sanitizer.tt_disagreements)
    (100.0 *. Sanitizer.typed_unknown_rate tr);
  if not (Sanitizer.typed_passed tr) then (
    Printf.eprintf "TYPED FUZZER FAILURE: type system diverges from the linter/oracle\n";
    exit 1);
  Printf.fprintf oc
    "  \"typed_fuzzer\": {\"cases\": %d, \"typed_lint_clean\": %d, \
     \"env_agree\": %d, \"legal_agree\": %d, \"unknown\": %d, \
     \"survivors_typed\": %d, \"dirty_rejected\": %d, \"disagreements\": %d},\n"
    tr.Sanitizer.tt_total tr.tt_typed_lint_clean tr.tt_env_agree tr.tt_legal_agree
    tr.tt_unknown tr.tt_survivors_typed tr.tt_dirty_rejected
    (List.length tr.Sanitizer.tt_disagreements);
  (* The serial run's observability report: per-phase time breakdown and
     the full counter set, as rendered by Report.to_json. *)
  Printf.fprintf oc "  \"observability\": %s\n"
    (Report.to_json
       (Report.of_metrics ~wall_s:serial.Unified_search.r_wall_s
          (Obs.metrics serial_obs)));
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_search.json\n%!"
