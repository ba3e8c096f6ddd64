(** Domain-parallel candidate evaluation.

    A pool of OCaml 5 domains maps an evaluation function over a
    contiguous index range.  Each worker runs against its own {!Eval_ctx}
    fork (fresh caches, an independent copy of the fault plan), built once
    per worker and reused for every item the worker evaluates.  Per-index
    results land in their index's slot regardless of which domain computed
    them, which makes the merge deterministic — the same best candidate,
    rejection count and quarantine set for any worker count and either
    schedule, because every per-index value is a pure function of the
    index and the caller replays the slots in order.

    Two schedules are available: {!Static} assigns each worker one
    contiguous chunk up front (predictable, but one expensive chunk
    serializes the run), and {!Dynamic} (the default) has idle domains
    pull the next unclaimed index from a shared atomic counter, so skewed
    per-item costs rebalance automatically.

    The evaluation function must confine failures to its result type
    (e.g. an outcome variant) — an exception escaping a worker is
    re-raised at the join. *)

type schedule =
  | Static   (** fixed contiguous chunks, one per worker *)
  | Dynamic  (** idle workers pull the next index from a shared atomic counter *)

val schedule_name : schedule -> string
(** ["static"] or ["dynamic"] — the spelling used by CLI flags. *)

val schedule_of_string : string -> schedule option
(** Inverse of {!schedule_name}; [None] on anything else. *)

type worker_stat = {
  ws_items : int;  (** items this worker evaluated *)
  ws_steals : int;
      (** items evaluated outside the worker's static fair-share chunk —
          the work the dynamic scheduler moved between domains (always 0
          under {!Static}) *)
  ws_busy_s : float;  (** wall time spent inside the evaluation function *)
}

type run_stats = {
  rs_schedule : schedule;  (** schedule this run used *)
  rs_workers : int;  (** workers actually spawned (after clamping) *)
  rs_wall_s : float;  (** wall time of the whole map *)
  rs_worker : worker_stat array;  (** one entry per worker, in worker order *)
}

val map_range :
  ?schedule:schedule ->
  ?on_stats:(run_stats -> unit) ->
  workers:int ->
  ctx:Eval_ctx.t ->
  first:int ->
  limit:int ->
  (Eval_ctx.t -> int -> 'a) ->
  'a array
(** [map_range ~workers ~ctx ~first ~limit f] evaluates
    [f worker_ctx i] for every [i] in [first, limit) and returns the
    results in index order.  [workers] is clamped to the range size and at
    most 64; worker 0 runs on the calling domain.  [schedule] (default
    {!Dynamic}) picks how indices are assigned to workers; the results,
    counters and trace content are bit-identical either way.

    With [workers <= 1] this degenerates to a sequential map over [ctx]
    itself — no fork, no atomics, no per-item timing — so a serial run
    pays strictly zero scheduling overhead (and, when [on_stats] is
    given, one clock pair for the whole map).

    After the join, every worker's cache/fault telemetry is absorbed into
    [ctx]; per-item trace events and counters are absorbed in index
    order, so the merged trace is identical to the serial run's.
    [on_stats] (if given) then receives the per-worker item/steal/busy
    accounting — timing-dependent numbers, deliberately outside the
    deterministic result. *)
