(* nas_serve: long-lived search daemon.

   Speaks the line-oriented JSON protocol of [Protocol] on stdin/stdout:
   one request per line in, one response per line out (responses may be
   reordered relative to requests — correlate on "id").  Requests are
   multiplexed onto a pool of worker domains behind the full resilience
   gauntlet (admission control, per-request deadlines, retry with backoff,
   per-workload circuit breakers); sessions share crash-safe cost/Fisher
   caches that persist across restarts via --cache-file.

     echo '{"op":"search","id":"r1","network":"resnet18","candidates":20}' | nas_serve
     nas_serve --smoke        # in-process self-test, no stdio needed *)

open Cmdliner

let die fmt = Format.kasprintf (fun msg -> prerr_endline ("nas_serve: " ^ msg); exit 2) fmt

let workers_arg =
  let doc = "Worker domains (= max in-flight sessions); must be positive." in
  Arg.(value & opt int 4 & info [ "w"; "workers" ] ~docv:"N" ~doc)

let max_queue_arg =
  let doc =
    "Admitted-but-waiting bound: a request arriving with the pool busy and \
     this many queued is rejected immediately with a retry-after hint."
  in
  Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in milliseconds, applied when a request \
     names none.  On expiry the session degrades to its best-so-far result."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let cache_file_arg =
  let doc =
    "Persist the shared cost/Fisher caches to this file (atomic writes): a \
     restarted daemon — even after kill -9 — warm-starts from the snapshot."
  in
  Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"PATH" ~doc)

let cache_save_every_arg =
  let doc = "Sessions between cache snapshots (0 disables periodic saves; a final snapshot is always written on shutdown)." in
  Arg.(value & opt int 1 & info [ "cache-save-every" ] ~docv:"N" ~doc)

let fault_rate_arg =
  let doc =
    "Server-level transient fault-injection rate in [0,1]: each session \
     attempt aborts with this probability and is retried with backoff \
     (hardening aid; default off)."
  in
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault-injection draws." in
  Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let retries_arg =
  let doc = "Total attempts per session for transient failures (1 = no retries)." in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let backoff_ms_arg =
  let doc = "Base retry backoff in milliseconds (doubles per attempt, jittered)." in
  Arg.(value & opt float 50.0 & info [ "backoff-ms" ] ~docv:"MS" ~doc)

let breaker_threshold_arg =
  let doc =
    "Consecutive failures (or quarantine storms) on one network|device \
     workload before its circuit breaker opens."
  in
  Arg.(value & opt int 5 & info [ "breaker-threshold" ] ~docv:"N" ~doc)

let breaker_cooldown_arg =
  let doc = "Milliseconds an open breaker refuses a workload before letting one probe request through." in
  Arg.(value & opt float 30000.0 & info [ "breaker-cooldown-ms" ] ~docv:"MS" ~doc)

let trace_dir_arg =
  let doc = "Write one JSONL trace per session into this directory (named after the request id)." in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let max_candidates_arg =
  let doc = "Per-request candidate-pool cap (larger requests are answered bad-request)." in
  Arg.(value & opt int 512 & info [ "max-candidates" ] ~docv:"N" ~doc)

let strategy_arg =
  let doc =
    "Default candidate-generation strategy for requests that do not name \
     one: $(b,random) (historical rejection-sampled pool), $(b,typed) \
     (well-typed-by-construction candidates) or $(b,guided) (beam search \
     over the Pareto front of typed candidates).  A request's \
     $(b,strategy) field overrides this."
  in
  Arg.(value & opt string "random" & info [ "strategy" ] ~docv:"NAME" ~doc)

let smoke_arg =
  let doc =
    "Do not serve stdio: boot an in-process server, push concurrent \
     requests through every degradation path (faults, a past deadline, an \
     overload burst), assert graceful behavior and clean shutdown, print a \
     summary and exit 0 on success."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let config_of workers max_queue deadline_ms cache_file cache_save_every fault_rate
    fault_seed retries backoff_ms breaker_threshold breaker_cooldown_ms trace_dir
    max_candidates strategy =
  let strategy =
    match Strategy.of_string strategy with
    | Some t -> t
    | None -> die "--strategy must be one of %s (got %s)" Strategy.names_doc strategy
  in
  if workers <= 0 then die "--workers must be positive (got %d)" workers;
  if max_queue < 0 then die "--max-queue must be >= 0 (got %d)" max_queue;
  Option.iter
    (fun ms -> if not (ms > 0.0) then die "--deadline-ms must be positive (got %g)" ms)
    deadline_ms;
  if cache_save_every < 0 then
    die "--cache-save-every must be >= 0 (got %d)" cache_save_every;
  if fault_rate < 0.0 || fault_rate > 1.0 || Float.is_nan fault_rate then
    die "--fault-rate must be a probability in [0,1] (got %g)" fault_rate;
  if retries <= 0 then die "--retries must be positive (got %d)" retries;
  if not (backoff_ms > 0.0) then die "--backoff-ms must be positive (got %g)" backoff_ms;
  if breaker_threshold <= 0 then
    die "--breaker-threshold must be positive (got %d)" breaker_threshold;
  if breaker_cooldown_ms < 0.0 then
    die "--breaker-cooldown-ms must be >= 0 (got %g)" breaker_cooldown_ms;
  if max_candidates <= 0 then
    die "--max-candidates must be positive (got %d)" max_candidates;
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        die "--trace-dir %s is not an existing directory" dir)
    trace_dir;
  { Server.default_config with
    cf_workers = workers;
    cf_max_queue = max_queue;
    cf_default_deadline_ms = deadline_ms;
    cf_retry =
      { Retry.default with
        rp_max_attempts = retries;
        rp_base_delay_s = backoff_ms /. 1000.0 };
    cf_breaker_threshold = breaker_threshold;
    cf_breaker_cooldown_s = breaker_cooldown_ms /. 1000.0;
    cf_cache_file = cache_file;
    cf_cache_save_every = cache_save_every;
    cf_fault =
      (if fault_rate <= 0.0 then Fault.none
       else Fault.make ~targets:[ Fault.Plan_gen ] ~seed:fault_seed ~rate:fault_rate ());
    cf_trace_dir = trace_dir;
    cf_max_candidates = max_candidates;
    cf_strategy = strategy }

(* --- stdio serving ------------------------------------------------------ *)

(* Worker domains answer concurrently, so every stdout write goes through
   one lock and flushes the whole line at once. *)
let out_lock = Mutex.create ()

let emit resp =
  Mutex.lock out_lock;
  print_string (Protocol.response_to_json resp);
  print_newline ();
  flush stdout;
  Mutex.unlock out_lock

let serve_stdio config =
  let srv = Server.create ~config () in
  let st = Server.stats srv in
  (match st.Server.st_cache_error with
  | Some e ->
      Format.eprintf "nas_serve: cache snapshot unusable (%a); cold start@."
        Nas_error.pp e
  | None ->
      if st.Server.st_warm_entries > 0 then
        Format.eprintf "nas_serve: warm start: %d cache entries restored@."
          st.Server.st_warm_entries);
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line -> (
        match Protocol.parse line with
        | Error msg ->
            emit
              (Protocol.Error_resp
                 { er_id = ""; er_class = "bad-request"; er_message = msg });
            loop ()
        | Ok Protocol.Ping ->
            emit Protocol.Pong;
            loop ()
        | Ok Protocol.Stats ->
            emit (Protocol.Stats_resp (Server.stats_fields (Server.stats srv)));
            loop ()
        | Ok Protocol.Shutdown -> ()
        | Ok (Protocol.Search req) ->
            Server.submit_async srv req ~reply:emit;
            loop ())
  in
  loop ();
  (* Drain: join the pool so every admitted request has answered, then
     write the final cache snapshot. *)
  let final = Server.shutdown srv in
  Format.eprintf "nas_serve: served %d sessions (%d errors, %d degraded), bye@."
    final.Server.st_completed final.Server.st_errors final.Server.st_degraded

(* --- in-process smoke --------------------------------------------------- *)

let smoke () =
  let failures = ref [] in
  let check name cond = if not cond then failures := name :: !failures in
  let tmp = Filename.temp_file "nas_serve_smoke" ".ckpt" in
  Sys.remove tmp;
  let config =
    { Server.default_config with
      cf_workers = 2;
      cf_max_queue = 2;
      cf_cache_file = Some tmp;
      cf_retry = { Retry.default with rp_base_delay_s = 0.001 };
      cf_breaker_cooldown_s = 0.05 }
  in
  let srv = Server.create ~config () in
  (* Burst of concurrent sessions: 6 healthy (2 distinct seeds, repeated),
     one under heavy search-level fault injection, one already past its
     deadline.  Everything must be answered; nothing may crash the pool. *)
  let reqs =
    Protocol.request ~candidates:6 ~seed:1 "h1"
    :: Protocol.request ~candidates:6 ~seed:2 "h2"
    :: Protocol.request ~candidates:6 ~seed:1 "h3"
    :: Protocol.request ~candidates:6 ~seed:2 "h4"
    :: Protocol.request ~candidates:6 ~seed:1 "h5"
    :: Protocol.request ~candidates:6 ~seed:2 "h6"
    :: Protocol.request ~candidates:8 ~seed:3 ~fault_rate:0.8 "faulty"
    :: [ Protocol.request ~candidates:6 ~seed:4 ~deadline_ms:0.001 "hurried" ]
  in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let replies = ref [] in
  List.iter
    (fun rq ->
      Server.submit_async srv rq ~reply:(fun resp ->
          Mutex.lock lock;
          replies := (rq.Protocol.rq_id, resp) :: !replies;
          Condition.signal cond;
          Mutex.unlock lock))
    reqs;
  Mutex.lock lock;
  while List.length !replies < List.length reqs do
    Condition.wait cond lock
  done;
  let replies = !replies in
  Mutex.unlock lock;
  let find id = List.assoc id replies in
  let healthy = [ "h1"; "h2"; "h3"; "h4"; "h5"; "h6" ] in
  List.iter
    (fun id ->
      check (id ^ " answered ok")
        (match find id with
        | Protocol.Result r -> r.Protocol.rs_complete
        | Protocol.Overloaded _ -> true (* burst > workers+queue: legal *)
        | _ -> false))
    healthy;
  check "equal seeds agree bit-identically"
    (match find "h1", find "h3", find "h5" with
    | Protocol.Result a, Protocol.Result b, Protocol.Result c ->
        a.Protocol.rs_best_plan = b.Protocol.rs_best_plan
        && a.Protocol.rs_best_latency_us = b.Protocol.rs_best_latency_us
        && b.Protocol.rs_best_plan = c.Protocol.rs_best_plan
    | _, _, _ -> true (* some were load-shed; nothing to compare *));
  check "faulted session survives via quarantine"
    (match find "faulty" with
    | Protocol.Result r -> r.Protocol.rs_complete
    | Protocol.Overloaded _ -> true
    | _ -> false);
  check "past-deadline session degrades, not crashes"
    (match find "hurried" with
    | Protocol.Result r -> r.Protocol.rs_degraded || r.Protocol.rs_complete
    | Protocol.Error_resp { er_class; _ } -> er_class = "timed-out"
    | Protocol.Overloaded _ -> true
    | _ -> false);
  (* Overload: flood far past workers + queue and demand at least one
     immediate rejection carrying a retry-after hint. *)
  let flood = List.init 12 (fun i -> Protocol.request ~candidates:4 ~seed:i ("f" ^ string_of_int i)) in
  let rejected = ref 0 in
  let flood_replies = ref 0 in
  List.iter
    (fun rq ->
      Server.submit_async srv rq ~reply:(fun resp ->
          Mutex.lock lock;
          incr flood_replies;
          (match resp with
          | Protocol.Overloaded { ov_retry_after_ms; _ } ->
              if ov_retry_after_ms > 0.0 then incr rejected
          | _ -> ());
          Condition.signal cond;
          Mutex.unlock lock))
    flood;
  Mutex.lock lock;
  while !flood_replies < List.length flood do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  check "overload burst load-shed with retry-after" (!rejected > 0);
  let final = Server.shutdown srv in
  check "clean shutdown answered everything"
    (final.Server.st_inflight = 0 && final.Server.st_queued = 0);
  check "cache snapshot written" (Sys.file_exists tmp);
  (* Warm restart: a second server over the same snapshot starts hot. *)
  let srv2 = Server.create ~config () in
  let st2 = Server.stats srv2 in
  check "restart warm-starts from snapshot" (st2.Server.st_warm_entries > 0);
  (match Server.submit srv2 (Protocol.request ~candidates:6 ~seed:1 "h1-again") with
  | Protocol.Result r ->
      check "warm session hits the shared cache" (r.Protocol.rs_cache_hits > 0);
      (match find "h1" with
      | Protocol.Result a ->
          check "warm restart is bit-identical"
            (a.Protocol.rs_best_plan = r.Protocol.rs_best_plan
            && a.Protocol.rs_best_latency_us = r.Protocol.rs_best_latency_us)
      | _ -> ())
  | _ -> check "warm session answered ok" false);
  ignore (Server.shutdown srv2);
  (try Sys.remove tmp with Sys_error _ -> ());
  match !failures with
  | [] ->
      print_endline "serve smoke OK: burst, faults, deadline, overload, warm restart";
      exit 0
  | fs ->
      List.iter (fun f -> prerr_endline ("serve smoke FAILED: " ^ f)) (List.rev fs);
      exit 1

let () =
  let run workers max_queue deadline_ms cache_file cache_save_every fault_rate
      fault_seed retries backoff_ms breaker_threshold breaker_cooldown_ms trace_dir
      max_candidates strategy do_smoke =
    let config =
      config_of workers max_queue deadline_ms cache_file cache_save_every fault_rate
        fault_seed retries backoff_ms breaker_threshold breaker_cooldown_ms trace_dir
        max_candidates strategy
    in
    if do_smoke then smoke () else serve_stdio config
  in
  let term =
    Term.(const run $ workers_arg $ max_queue_arg $ deadline_arg $ cache_file_arg
          $ cache_save_every_arg $ fault_rate_arg $ fault_seed_arg $ retries_arg
          $ backoff_ms_arg $ breaker_threshold_arg $ breaker_cooldown_arg
          $ trace_dir_arg $ max_candidates_arg $ strategy_arg
          $ smoke_arg)
  in
  let info =
    Cmd.info "nas_serve"
      ~doc:"Long-lived NAS/PTE search daemon (line-oriented JSON on stdio)"
  in
  exit (Cmd.eval (Cmd.v info term))
