(** The serving core: a worker pool of domains multiplexing concurrent
    search sessions, wrapped in the [lib/robust] resilience layer.

    Every request flows through the same gauntlet: {!Admission} (bounded
    in-flight + bounded queue, immediate [Overloaded] rejection),
    {!Breaker} per (network, device) workload, a {!Deadline} watchdog
    installed as the search's [?stop] hook (expiry degrades the session
    to its best-so-far incumbent), and {!Retry} with exponential backoff
    for transient failures.  Sessions share one crash-safe content-hashed
    cost/Fisher cache pair: each session warms its private context from
    the shared one ({!Eval_ctx.warm_from}) and folds its fresh entries
    back ({!Eval_ctx.absorb_full}); the shared caches persist through the
    atomic {!Checkpoint} writer so a kill -9 restart warm-starts.

    Determinism: a served request's search result is bit-identical to the
    one-shot CLI with the same seed, because both run the request's
    {!Job.t} through {!Job.run}.  The warm caches only change hit counts,
    never values, and retry jitter / fault draws are pure in the request
    id.  See DESIGN.md §10. *)

type config = {
  cf_workers : int;  (** worker domains = max in-flight sessions *)
  cf_max_queue : int;  (** admitted-but-waiting bound *)
  cf_default_deadline_ms : float option;
      (** deadline applied when a request names none *)
  cf_retry : Retry.policy;  (** transient-failure retry policy *)
  cf_breaker_threshold : int;  (** consecutive failures before tripping *)
  cf_breaker_cooldown_s : float;  (** open-state cooldown *)
  cf_storm_fraction : float;
      (** quarantined/explored ratio at or above which a completed session
          still counts as a breaker failure (a quarantine storm) *)
  cf_cache_file : string option;  (** shared-cache snapshot path *)
  cf_cache_save_every : int;  (** sessions between snapshots; 0 = never *)
  cf_cache_capacity : int;  (** shared workload-cost memo bound *)
  cf_fisher_capacity : int;  (** shared Fisher memo bound *)
  cf_fault : Fault.t;  (** server-level transient fault injection *)
  cf_trace_dir : string option;  (** per-session JSONL trace directory *)
  cf_max_candidates : int;
      (** per-request candidate-pool cap: a request asking for more is
          answered [bad-request], naming the cap *)
  cf_max_session_workers : int;
      (** per-request worker-domain cap: a request asking for more runs on
          this many, which changes only its wall time — the determinism
          contract makes results independent of the worker count *)
  cf_strategy : Strategy.t;
      (** candidate-generation strategy for requests that do not pick one
          themselves (the request's [strategy] field wins) *)
}

val default_config : config
(** 4 workers, queue 16, no default deadline, {!Retry.default}, breaker
    5/30s, storm fraction 0.5, no persistence, no faults, no traces,
    candidate cap 512, session-worker cap 4, random strategy. *)

type t
(** A running server (the worker domains are live). *)

val create : ?clock:Deadline.clock -> ?config:config -> unit -> t
(** Boot the pool.  When [config.cf_cache_file] names an existing
    snapshot it is merged into the shared caches (warm start); a
    truncated, corrupt or foreign file is recorded in {!stats} and
    ignored — the server cold-starts instead of crashing. *)

val submit_async : t -> Protocol.request -> reply:(Protocol.response -> unit) -> unit
(** Enqueue one request.  The admission decision is taken immediately:
    a rejection invokes [reply] with [Overloaded] before returning,
    otherwise [reply] is invoked from a worker domain when the session
    finishes.  The request's deadline ([deadline_ms], or the configured
    default) starts counting here — queue wait spends the client's
    budget, and an already-expired job fails fast at dequeue.  [reply]
    must be domain-safe. *)

val submit : t -> Protocol.request -> Protocol.response
(** {!submit_async} and block for the response (test/bench convenience). *)

val request_seed : string -> int
(** The deterministic per-request seed derived from the request id —
    drives retry jitter and the server-level fault draws. *)

val fault_key : id:string -> attempt:int -> int
(** The fault-plan key for (request, attempt): tests pick ids whose
    draw trips at attempt 0 and recovers at attempt 1 to exercise the
    retry path deterministically. *)

type stats = {
  st_admitted : int;
  st_rejected : int;  (** admission rejections *)
  st_completed : int;  (** sessions answered with a result *)
  st_errors : int;  (** sessions answered with an error *)
  st_degraded : int;  (** deadline-degraded best-so-far results *)
  st_deadline_expired : int;  (** sessions that hit their deadline *)
  st_retried : int;  (** transient-failure retries across all sessions *)
  st_breaker_open : int;  (** requests refused by an open breaker *)
  st_breaker_trips : int;  (** breaker open-transitions *)
  st_quarantine_storms : int;  (** completed sessions counted as failures *)
  st_inflight : int;  (** sessions running right now *)
  st_queued : int;  (** sessions admitted and waiting *)
  st_warm_entries : int;  (** cache entries restored at boot *)
  st_cache_error : Nas_error.t option;
      (** the boot-time cache-load or latest save failure, if any *)
  st_session_times_s : float array;
      (** wall times of the most recent sessions (bounded ring of 4096,
          oldest first) — enough for p50/p99 without unbounded growth *)
  st_cost : Bounded_cache.stats;  (** shared workload-cost memo counters *)
  st_fisher : Bounded_cache.stats;  (** shared Fisher memo counters *)
}

val stats : t -> stats
(** A consistent snapshot of the counters (taken under the server lock). *)

val cache_hit_rate : stats -> float
(** Shared-cache hits over (hits + misses), both memos combined; 0 when
    nothing was looked up. *)

val stats_fields : stats -> (string * float) list
(** The snapshot flattened for a ["stats"] protocol response. *)

val obs : t -> Obs.t
(** The server's observability recorder (counters and histograms above
    live here). *)

val shared_ctx : t -> Eval_ctx.t
(** The shared parent context (for tests asserting cache sharing). *)

val shutdown : t -> stats
(** Stop admitting, drain the queue, join every worker domain, write a
    final cache snapshot, and return the closing stats.  Idempotent-ish:
    a second call returns fresh stats without joining anything. *)
