(** Domain-parallel candidate evaluation.

    A search opens one worker set with {!with_workers} and maps an
    evaluation function over a contiguous index range once per batch
    with {!map_range}.  Worker 0 is the search's own {!Eval_ctx}; the
    other workers are forked from it once per search (warm with its memo
    entries, with their own layer cache, arena, counters and copy of the
    fault plan) and reused for every batch, so a worker's caches stay
    warm across batches.  When the scope closes, each fork is merged into
    the parent in worker order: its cache entries and, exactly once, its
    statistics.  Per-index results land in their index's slot regardless
    of which domain computed them, which makes the merge deterministic —
    the same best candidate, rejection count and quarantine set for any
    worker count, because every per-index value is a pure function of the
    index and the caller replays the slots in order.

    Idle domains pull the next unclaimed index from a shared atomic
    counter, so skewed per-item costs rebalance automatically.

    The evaluation function must confine failures to its result type
    (e.g. an outcome variant) — an exception escaping a worker is
    re-raised at the join. *)

type schedule = Dynamic
(** The one schedule: idle workers pull the next index from a shared
    atomic counter.  The type remains only because the benchmark harness
    still passes [~schedule:Dynamic] to {!Unified_search.search}, which
    ignores it. *)

type worker_stat = {
  ws_items : int;  (** items this worker evaluated *)
  ws_steals : int;
      (** items evaluated outside the worker's fair-share contiguous chunk
          — the work the scheduler moved between domains *)
  ws_busy_s : float;  (** wall time spent inside the evaluation function *)
}

type run_stats = {
  rs_workers : int;  (** workers actually spawned (after clamping) *)
  rs_wall_s : float;  (** wall time of the whole map *)
  rs_worker : worker_stat array;  (** one entry per worker, in worker order *)
}

type pool
(** A search's worker contexts: the parent context as worker 0 and the
    forks opened by {!with_workers}. *)

val with_workers : workers:int -> ctx:Eval_ctx.t -> (pool -> 'a) -> 'a
(** [with_workers ~workers ~ctx f] runs [f] on a pool of [workers]
    contexts (clamped to [1, 64]).  Worker 0 is [ctx] itself; workers
    1..n-1 are {!Eval_ctx.fork}s of [ctx], warmed with its memo entries,
    made once here.  When [f] returns or raises, each fork is merged into
    [ctx] with {!Eval_ctx.absorb_full}, in worker order, so its cache
    entries outlive the search and its statistics are counted once.  With
    [workers <= 1] nothing is forked.  Open the pool inside the span that
    item spans should nest under: a fork's recorder opens its spans at
    the parent's depth when it is forked. *)

val map_range :
  ?on_stats:(run_stats -> unit) ->
  pool ->
  first:int ->
  limit:int ->
  (Eval_ctx.t -> int -> 'a) ->
  'a array
(** [map_range pool ~first ~limit f] evaluates [f worker_ctx i] for every
    [i] in [first, limit) on the first [min workers (limit - first)]
    members of [pool] and returns the results in index order.  Worker 0
    runs on the calling domain.  Which worker evaluates which index is
    timing-dependent; the results, counters and trace content are not.
    The pool's contexts must not be used by anything else while the map
    runs.

    With one worker this degenerates to a sequential map over the parent
    context — no atomics, no per-item timing — so a serial run pays
    strictly zero scheduling overhead (and, when [on_stats] is given, one
    clock pair for the whole map).

    After the join, per-item trace events and counters are absorbed into
    the parent's recorder in index order, so the merged trace is
    identical to the serial run's; the workers' caches and counters reach
    the parent when the pool closes.  [on_stats] (if given) then receives
    the per-worker item/steal/busy accounting — timing-dependent numbers,
    deliberately outside the deterministic result. *)
