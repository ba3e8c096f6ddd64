(* Serving-throughput benchmark for the daemon core.

   Boots an in-process [Server] pool, pushes two phases of concurrent
   sessions through it — phase A populates the shared caches, phase B
   repeats the same workloads so cross-session cache sharing shows up as
   a hit rate — and reports requests/sec plus the p50/p99 session-time
   percentiles.  Cross-checks the serving determinism contract (a served
   request is bit-identical to a direct [Job.run] of its job on a fresh
   context) and the warm-restart contract (a second server over the
   snapshot file starts with warm cache entries).  Results land in
   BENCH_serve.json.

   Usage:  dune exec bench/serve_bench.exe [-- requests-per-phase] *)

let per_phase =
  if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 12

let candidates = 10
let seeds = [| 11; 12; 13; 14 |]
let workers = 4

let request i =
  Protocol.request ~candidates ~seed:seeds.(i mod Array.length seeds)
    ~workers:1
    (Printf.sprintf "b%d" i)

(* Push [n] requests concurrently and wait for every reply. *)
let run_phase srv ~offset n =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let got = ref 0 in
  let results = Array.make n None in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Server.submit_async srv (request (offset + i)) ~reply:(fun resp ->
        Mutex.lock lock;
        results.(i) <- Some resp;
        incr got;
        Condition.signal cond;
        Mutex.unlock lock)
  done;
  Mutex.lock lock;
  while !got < n do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  (Unix.gettimeofday () -. t0, results)

let ok_results arr =
  Array.to_list arr
  |> List.filter_map (function
       | Some (Protocol.Result r) -> Some r
       | _ -> None)

let direct_signature i =
  let _, r = Job.run ~ctx:(Eval_ctx.create ()) (request i).Protocol.rq_job in
  ( Unified_search.plans_signature r.Unified_search.r_best.Unified_search.cd_plans,
    1e6 *. r.Unified_search.r_best.Unified_search.cd_latency_s )

let () =
  let snapshot = Filename.temp_file "serve_bench" ".ckpt" in
  Sys.remove snapshot;
  let config =
    { Server.default_config with
      cf_workers = workers;
      cf_max_queue = 4 * per_phase;
      cf_cache_file = Some snapshot }
  in
  let srv = Server.create ~config () in
  let dt_a, res_a = run_phase srv ~offset:0 per_phase in
  let dt_b, res_b = run_phase srv ~offset:0 per_phase in
  let ok_a = ok_results res_a and ok_b = ok_results res_b in
  if List.length ok_a <> per_phase || List.length ok_b <> per_phase then (
    Printf.eprintf "serve bench: %d/%d + %d/%d sessions answered ok\n"
      (List.length ok_a) per_phase (List.length ok_b) per_phase;
    exit 1);
  (* Determinism: every served result equals the one-shot search. *)
  Array.iteri
    (fun i seed ->
      let sg, lat = direct_signature i in
      List.iteri
        (fun j r ->
          if j mod Array.length seeds = i then
            if
              r.Protocol.rs_best_plan <> sg
              || r.Protocol.rs_best_latency_us <> lat
            then (
              Printf.eprintf "SERVING DETERMINISM VIOLATION at seed=%d\n" seed;
              exit 1))
        (ok_a @ ok_b))
    seeds;
  Printf.printf "all served results are bit-identical to the one-shot CLI\n%!";
  let st = Server.shutdown srv in
  let hit_rate = Server.cache_hit_rate st in
  if not (hit_rate > 0.0) then (
    Printf.eprintf "serve bench: expected cross-session cache hits, got rate %g\n"
      hit_rate;
    exit 1);
  let times =
    Array.map (fun s -> 1000.0 *. s) st.Server.st_session_times_s
  in
  let p50 = Stats.percentile times 50.0 and p99 = Stats.percentile times 99.0 in
  let total = float_of_int (2 * per_phase) in
  let rps_a = float_of_int per_phase /. dt_a
  and rps_b = float_of_int per_phase /. dt_b in
  Printf.printf
    "phase A (cold): %d requests in %.2fs (%.2f req/s)\n\
     phase B (warm): %d requests in %.2fs (%.2f req/s)\n\
     cache hit rate %.3f, session p50 %.1fms p99 %.1fms\n%!"
    per_phase dt_a rps_a per_phase dt_b rps_b hit_rate p50 p99;
  (* Warm restart: the snapshot written at shutdown boots a hot server. *)
  let srv2 = Server.create ~config () in
  let warm = (Server.stats srv2).Server.st_warm_entries in
  ignore (Server.shutdown srv2);
  (try Sys.remove snapshot with Sys_error _ -> ());
  if warm <= 0 then (
    Printf.eprintf "serve bench: restart restored %d cache entries\n" warm;
    exit 1);
  Printf.printf "warm restart restored %d cache entries\n%!" warm;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"serve-throughput\",\n";
  Printf.fprintf oc "  \"model\": \"resnet18\",\n";
  Printf.fprintf oc "  \"candidates_per_request\": %d,\n" candidates;
  Printf.fprintf oc "  \"requests_per_phase\": %d,\n" per_phase;
  Printf.fprintf oc "  \"pool_workers\": %d,\n" workers;
  Printf.fprintf oc "  \"available_cores\": %d,\n"
    (Parallel_eval.available_workers ());
  Printf.fprintf oc "  \"requests_per_sec_cold\": %.3f,\n" rps_a;
  Printf.fprintf oc "  \"requests_per_sec_warm\": %.3f,\n" rps_b;
  Printf.fprintf oc "  \"requests_per_sec\": %.3f,\n" (total /. (dt_a +. dt_b));
  Printf.fprintf oc "  \"cross_session_cache_hit_rate\": %.4f,\n" hit_rate;
  Printf.fprintf oc "  \"session_ms_p50\": %.2f,\n" p50;
  Printf.fprintf oc "  \"session_ms_p99\": %.2f,\n" p99;
  Printf.fprintf oc "  \"sessions_served\": %d,\n" st.Server.st_completed;
  Printf.fprintf oc "  \"warm_restart_entries\": %d,\n" warm;
  Printf.fprintf oc "  \"deterministic_vs_oneshot\": true\n";
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n%!"
