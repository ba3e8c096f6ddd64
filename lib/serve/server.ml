type config = {
  cf_workers : int;
  cf_max_queue : int;
  cf_default_deadline_ms : float option;
  cf_retry : Retry.policy;
  cf_breaker_threshold : int;
  cf_breaker_cooldown_s : float;
  cf_storm_fraction : float;
  cf_cache_file : string option;
  cf_cache_save_every : int;
  cf_cache_capacity : int;
  cf_fisher_capacity : int;
  cf_fault : Fault.t;
  cf_trace_dir : string option;
  cf_max_candidates : int;
  cf_max_session_workers : int;
  cf_strategy : Strategy.t;
}

let default_config =
  { cf_workers = 4;
    cf_max_queue = 16;
    cf_default_deadline_ms = None;
    cf_retry = Retry.default;
    cf_breaker_threshold = 5;
    cf_breaker_cooldown_s = 30.0;
    cf_storm_fraction = 0.5;
    cf_cache_file = None;
    cf_cache_save_every = 1;
    cf_cache_capacity = 8192;
    cf_fisher_capacity = 4096;
    cf_fault = Fault.none;
    cf_trace_dir = None;
    cf_max_candidates = 512;
    cf_max_session_workers = 4;
    cf_strategy = Strategy.Random }

type queued = {
  qd_req : Protocol.request;
  qd_deadline : Deadline.t;
      (* stamped at submit, so queue wait counts against the budget *)
  qd_reply : Protocol.response -> unit;
}

(* Per-session wall times kept for stats: a bounded ring of the most
   recent sessions, so a long-lived daemon's memory and stats cost stay
   flat. *)
let session_times_cap = 4096

type t = {
  sv_cfg : config;
  sv_clock : Deadline.clock;
  sv_lock : Mutex.t;
  sv_cond : Condition.t;
  sv_queue : queued Queue.t;
  sv_admission : Admission.t;
  sv_breaker : Breaker.t;
  sv_shared : Eval_ctx.t;
  sv_obs : Obs.t;
  sv_times : float array;  (* ring of the last [session_times_cap] durations *)
  mutable sv_times_len : int;
  mutable sv_times_pos : int;  (* next write index *)
  mutable sv_warm_entries : int;
  mutable sv_cache_error : Nas_error.t option;
  mutable sv_sessions_done : int;
  mutable sv_stopping : bool;
  mutable sv_domains : unit Domain.t list;
}

(* Deterministic per-request keys: the retry backoff jitter and the
   server-level fault draws are pure functions of the request id (and
   attempt), so a replayed request is refused/faulted/delayed identically.
   [Hashtbl.hash] is deterministic for strings within a build. *)
let request_seed id = Hashtbl.hash id land 0x3FFFFFFF

let fault_key ~id ~attempt = (request_seed id * 31) + attempt

let workload_key (rq : Protocol.request) =
  rq.rq_job.Job.jb_network ^ "|" ^ rq.rq_job.jb_device

(* --- locked helpers ----------------------------------------------------- *)

let locked t f =
  Mutex.lock t.sv_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sv_lock) f

let save_caches_locked t =
  match t.sv_cfg.cf_cache_file with
  | None -> ()
  | Some path -> (
      match Eval_ctx.save_caches ~path t.sv_shared with
      | Ok () -> Obs.incr t.sv_obs "serve.cache_saves"
      | Error e ->
          t.sv_cache_error <- Some e;
          Obs.incr t.sv_obs "serve.cache_save_errors")

(* --- one session -------------------------------------------------------- *)

let sanitize_id id =
  let b = Bytes.of_string (if id = "" then "anon" else id) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

(* Runs entirely on the worker domain; takes the server lock only for the
   short shared-cache and telemetry sections, never across a search.
   [probe] says this session is its workload's half-open breaker probe:
   an outcome that is neither a success nor a workload failure must then
   hand the key back to Open (see the [Error] branch below). *)
let run_search_session t (rq : Protocol.request) ~deadline ~probe =
  let cfg = t.sv_cfg in
  let seed = request_seed rq.rq_id in
  let job =
    { rq.rq_job with
      Job.jb_workers = min rq.rq_job.jb_workers cfg.cf_max_session_workers;
      jb_strategy = Some (Option.value rq.rq_job.jb_strategy ~default:cfg.cf_strategy) }
  in
  let attempt_session ~attempt =
    Deadline.guard deadline ~label:("session " ^ rq.rq_id);
    (* Server-level transient fault injection: a tripped draw aborts this
       attempt with a (retryable) Injected_fault before any work is done.
       Draws are pure in (request, attempt), so retries can recover. *)
    let server_fault = Fault.copy cfg.cf_fault in
    if Fault.trip server_fault ~key:(fault_key ~id:rq.rq_id ~attempt) Fault.Plan_gen
    then Nas_error.fail (Nas_error.Injected_fault ("session attempt " ^ string_of_int attempt));
    let session_obs =
      match cfg.cf_trace_dir with
      | Some dir ->
          Obs.create
            ~trace_file:(Filename.concat dir (sanitize_id rq.rq_id ^ ".jsonl"))
            ()
      | None -> Obs.disabled
    in
    let ctx =
      Eval_ctx.create ~cache_capacity:cfg.cf_cache_capacity
        ~fisher_capacity:cfg.cf_fisher_capacity ~fault:(Job.fault job) ~obs:session_obs
        ()
    in
    ignore (locked t (fun () -> Eval_ctx.warm_from ctx ~src:t.sv_shared));
    let _, r = Job.run ~ctx ~stop:(fun () -> Deadline.expired deadline) job in
    let cs = Eval_ctx.cost_stats ctx and fs = Eval_ctx.fisher_stats ctx in
    locked t (fun () -> Eval_ctx.absorb_full t.sv_shared ctx);
    Obs.close session_obs;
    let degraded = (not r.Unified_search.r_complete) && Deadline.expired deadline in
    let quarantined = List.length r.Unified_search.r_quarantined in
    let storm =
      float_of_int quarantined
      >= cfg.cf_storm_fraction *. float_of_int (max 1 r.Unified_search.r_explored)
    in
    let payload =
      { Protocol.rs_id = rq.rq_id;
        rs_best_plan = Unified_search.plans_signature r.r_best.Unified_search.cd_plans;
        rs_best_latency_us = 1e6 *. r.r_best.Unified_search.cd_latency_s;
        rs_baseline_latency_us = 1e6 *. r.r_baseline.Pipeline.ev_latency_s;
        rs_speedup = Unified_search.speedup r;
        rs_explored = r.r_explored;
        rs_rejected = r.r_rejected;
        rs_quarantined = quarantined;
        rs_evaluated = r.r_evaluated;
        rs_complete = r.r_complete;
        rs_degraded = degraded;
        rs_retries = 0 (* patched by the caller *);
        rs_cache_hits = cs.Bounded_cache.cs_hits + fs.Bounded_cache.cs_hits;
        rs_wall_ms = 1000.0 *. r.r_wall_s }
    in
    (payload, storm)
  in
  let outcome, retries =
    Retry.run ~policy:cfg.cf_retry ~deadline ~seed
      ~on_retry:(fun ~attempt:_ ~delay_s:_ _e ->
        locked t (fun () -> Obs.incr t.sv_obs "serve.retried"))
      (fun ~attempt -> attempt_session ~attempt)
  in
  let key = workload_key rq in
  match outcome with
  | Ok (payload, storm) ->
      locked t (fun () ->
          Obs.incr t.sv_obs "serve.completed";
          if payload.Protocol.rs_degraded then begin
            Obs.incr t.sv_obs "serve.deadline_expired";
            Obs.incr t.sv_obs "serve.degraded"
          end;
          if storm then begin
            Obs.incr t.sv_obs "serve.quarantine_storms";
            Breaker.failure t.sv_breaker ~key
          end
          else Breaker.success t.sv_breaker ~key);
      Protocol.Result { payload with Protocol.rs_retries = retries }
  | Error e ->
      locked t (fun () ->
          Obs.incr t.sv_obs "serve.errors";
          (* A client's deadline says nothing about the workload's health,
             so Timed_out does not count toward tripping its breaker — but
             a probe ending this way has no verdict either, and must not
             leave the key wedged Half_open: abandon restarts the
             cooldown, so the workload is re-probed later. *)
          match e with
          | Nas_error.Timed_out _ ->
              Obs.incr t.sv_obs "serve.deadline_expired";
              if probe then Breaker.abandon t.sv_breaker ~key
          | _ -> Breaker.failure t.sv_breaker ~key);
      Protocol.Error_resp
        { er_id = rq.rq_id;
          er_class = Nas_error.class_name e;
          er_message = Nas_error.to_string e }

let run_session t (rq : Protocol.request) ~deadline =
  (* Validate before consulting the breaker, so a malformed request can
     neither trip a workload's breaker nor consume its half-open probe.
     Parsed requests passed [Job.validate] already; in-process ones are
     checked here.  The candidate cap is this server's own bound, so it is
     checked here for both. *)
  let bad msg =
    Protocol.Error_resp { er_id = rq.rq_id; er_class = "bad-request"; er_message = msg }
  in
  match Job.validate rq.rq_job, Device.by_name rq.rq_job.jb_device with
  | Error msg, _ -> bad msg
  | Ok (), None -> bad ("unknown device " ^ rq.rq_job.jb_device)
  | Ok (), Some _ when rq.rq_job.jb_candidates > t.sv_cfg.cf_max_candidates ->
      bad
        (Printf.sprintf "candidates must be <= %d (this server's cap)"
           t.sv_cfg.cf_max_candidates)
  | Ok (), Some _ ->
      let key = workload_key rq in
      let allowed, probe, retry_after =
        locked t (fun () ->
            let a = Breaker.allow t.sv_breaker ~key in
            if not a then Obs.incr t.sv_obs "serve.breaker_open";
            ( a,
              a && Breaker.state t.sv_breaker ~key = Breaker.Half_open,
              Breaker.retry_after_s t.sv_breaker ~key ))
      in
      if not allowed then
        Protocol.Unavailable
          { un_id = rq.rq_id;
            un_reason = "breaker_open";
            un_retry_after_ms = 1000.0 *. retry_after }
      else
        try run_search_session t rq ~deadline ~probe
        with e ->
          (* An escape the taxonomy cannot classify gives the probe no
             verdict: hand the key back to Open (fresh cooldown) before
             the worker's catch-all answers, or it stays Half_open — and
             refused — forever. *)
          if probe then locked t (fun () -> Breaker.abandon t.sv_breaker ~key);
          raise e

(* --- the worker pool ---------------------------------------------------- *)

let rec worker_loop t =
  Mutex.lock t.sv_lock;
  while Queue.is_empty t.sv_queue && not t.sv_stopping do
    Condition.wait t.sv_cond t.sv_lock
  done;
  if Queue.is_empty t.sv_queue then Mutex.unlock t.sv_lock (* stopping: drain done *)
  else begin
    let qd = Queue.pop t.sv_queue in
    Admission.started t.sv_admission;
    Mutex.unlock t.sv_lock;
    let t0 = t.sv_clock () in
    (* Fault containment: whatever one session does — including escapes
       the taxonomy cannot classify — it answers its own request and the
       daemon keeps serving the others. *)
    let resp =
      try run_session t qd.qd_req ~deadline:qd.qd_deadline
      with e ->
        Protocol.Error_resp
          { er_id = qd.qd_req.Protocol.rq_id;
            er_class = "internal";
            er_message = Printexc.to_string e }
    in
    let dur = t.sv_clock () -. t0 in
    (try qd.qd_reply resp with _ -> ());
    Mutex.lock t.sv_lock;
    Admission.finished t.sv_admission ~dur_s:dur;
    t.sv_sessions_done <- t.sv_sessions_done + 1;
    t.sv_times.(t.sv_times_pos) <- dur;
    t.sv_times_pos <- (t.sv_times_pos + 1) mod session_times_cap;
    if t.sv_times_len < session_times_cap then
      t.sv_times_len <- t.sv_times_len + 1;
    Obs.observe t.sv_obs "serve.session_s" dur;
    if
      t.sv_cfg.cf_cache_save_every > 0
      && t.sv_sessions_done mod t.sv_cfg.cf_cache_save_every = 0
    then save_caches_locked t;
    Mutex.unlock t.sv_lock;
    worker_loop t
  end

let create ?(clock = Deadline.monotonic) ?(config = default_config) () =
  let shared =
    Eval_ctx.create ~cache_capacity:config.cf_cache_capacity
      ~fisher_capacity:config.cf_fisher_capacity ()
  in
  (* Warm start: a snapshot from a previous (possibly kill -9'd) daemon is
     merged in; a truncated or foreign file is reported and ignored — the
     daemon cold-starts instead of crashing. *)
  let warm, cache_error =
    match config.cf_cache_file with
    | Some path when Sys.file_exists path -> (
        match Eval_ctx.load_caches ~path shared with
        | Ok n -> (n, None)
        | Error e -> (0, Some e))
    | Some _ | None -> (0, None)
  in
  let workers = max 1 config.cf_workers in
  let t =
    { sv_cfg = { config with cf_workers = workers };
      sv_clock = clock;
      sv_lock = Mutex.create ();
      sv_cond = Condition.create ();
      sv_queue = Queue.create ();
      sv_admission =
        Admission.create ~max_inflight:workers ~max_queue:config.cf_max_queue ();
      sv_breaker =
        Breaker.create ~clock ~threshold:config.cf_breaker_threshold
          ~cooldown_s:config.cf_breaker_cooldown_s ();
      sv_shared = shared;
      sv_obs = Obs.create ~clock ();
      sv_times = Array.make session_times_cap 0.0;
      sv_times_len = 0;
      sv_times_pos = 0;
      sv_warm_entries = warm;
      sv_cache_error = cache_error;
      sv_sessions_done = 0;
      sv_stopping = false;
      sv_domains = [] }
  in
  if warm > 0 then Obs.set t.sv_obs "serve.cache_warm_entries" warm;
  if cache_error <> None then Obs.incr t.sv_obs "serve.cache_load_errors";
  t.sv_domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit_async t req ~reply =
  (* The deadline clock starts here, not at dequeue: time spent waiting
     in the admission queue counts against the client's budget, and a job
     already expired when a worker picks it up fails fast on its first
     guard. *)
  let deadline =
    match req.Protocol.rq_deadline_ms, t.sv_cfg.cf_default_deadline_ms with
    | Some ms, _ | None, Some ms ->
        Deadline.make ~clock:t.sv_clock ~after_s:(ms /. 1000.0) ()
    | None, None -> Deadline.none
  in
  let decision =
    locked t (fun () ->
        if t.sv_stopping then `Stopping
        else
          match Admission.admit t.sv_admission with
          | Admission.Rejected retry_after ->
              Obs.incr t.sv_obs "serve.rejected";
              `Rejected retry_after
          | Admission.Admitted ->
              Obs.incr t.sv_obs "serve.admitted";
              Queue.push
                { qd_req = req; qd_deadline = deadline; qd_reply = reply }
                t.sv_queue;
              Condition.signal t.sv_cond;
              `Admitted)
  in
  match decision with
  | `Admitted -> ()
  | `Rejected retry_after ->
      reply
        (Protocol.Overloaded
           { ov_id = req.Protocol.rq_id; ov_retry_after_ms = 1000.0 *. retry_after })
  | `Stopping ->
      reply
        (Protocol.Error_resp
           { er_id = req.Protocol.rq_id;
             er_class = "shutting-down";
             er_message = "server is draining" })

let submit t req =
  let m = Mutex.create () in
  let c = Condition.create () in
  let slot = ref None in
  submit_async t req ~reply:(fun resp ->
      Mutex.lock m;
      slot := Some resp;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !slot

(* --- introspection ------------------------------------------------------ *)

type stats = {
  st_admitted : int;
  st_rejected : int;
  st_completed : int;
  st_errors : int;
  st_degraded : int;
  st_deadline_expired : int;
  st_retried : int;
  st_breaker_open : int;
  st_breaker_trips : int;
  st_quarantine_storms : int;
  st_inflight : int;
  st_queued : int;
  st_warm_entries : int;
  st_cache_error : Nas_error.t option;
  st_session_times_s : float array;
  st_cost : Bounded_cache.stats;
  st_fisher : Bounded_cache.stats;
}

let stats t =
  locked t (fun () ->
      let c name = Metrics.counter (Obs.metrics t.sv_obs) name in
      { st_admitted = Admission.admitted_total t.sv_admission;
        st_rejected = Admission.rejected_total t.sv_admission;
        st_completed = c "serve.completed";
        st_errors = c "serve.errors";
        st_degraded = c "serve.degraded";
        st_deadline_expired = c "serve.deadline_expired";
        st_retried = c "serve.retried";
        st_breaker_open = c "serve.breaker_open";
        st_breaker_trips = Breaker.trips t.sv_breaker;
        st_quarantine_storms = c "serve.quarantine_storms";
        st_inflight = Admission.inflight t.sv_admission;
        st_queued = Admission.queued t.sv_admission;
        st_warm_entries = t.sv_warm_entries;
        st_cache_error = t.sv_cache_error;
        st_session_times_s =
          (if t.sv_times_len < session_times_cap then
             Array.sub t.sv_times 0 t.sv_times_len
           else
             Array.init session_times_cap (fun i ->
                 t.sv_times.((t.sv_times_pos + i) mod session_times_cap)));
        st_cost = Eval_ctx.cost_stats t.sv_shared;
        st_fisher = Eval_ctx.fisher_stats t.sv_shared })

let cache_hit_rate st =
  let hits = st.st_cost.Bounded_cache.cs_hits + st.st_fisher.Bounded_cache.cs_hits in
  let misses =
    st.st_cost.Bounded_cache.cs_misses + st.st_fisher.Bounded_cache.cs_misses
  in
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

let stats_fields st =
  [ ("admitted", float_of_int st.st_admitted);
    ("rejected", float_of_int st.st_rejected);
    ("completed", float_of_int st.st_completed);
    ("errors", float_of_int st.st_errors);
    ("deadline_expired", float_of_int st.st_deadline_expired);
    ("retried", float_of_int st.st_retried);
    ("breaker_open", float_of_int st.st_breaker_open);
    ("breaker_trips", float_of_int st.st_breaker_trips);
    ("quarantine_storms", float_of_int st.st_quarantine_storms);
    ("inflight", float_of_int st.st_inflight);
    ("queued", float_of_int st.st_queued);
    ("cache_warm_entries", float_of_int st.st_warm_entries);
    ("cache_hit_rate", cache_hit_rate st) ]

let obs t = t.sv_obs

let shared_ctx t = t.sv_shared

let shutdown t =
  locked t (fun () ->
      t.sv_stopping <- true;
      Condition.broadcast t.sv_cond);
  List.iter Domain.join t.sv_domains;
  t.sv_domains <- [];
  (* Final snapshot so the next boot warm-starts even when the periodic
     cadence missed the last sessions. *)
  locked t (fun () -> save_caches_locked t);
  stats t
