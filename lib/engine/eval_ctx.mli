(** The explicit evaluation context.

    Everything candidate evaluation used to keep in module-level mutable
    state lives here instead: the bounded workload-cost memo, the
    Fisher-score memo, the Fisher oracle's shared layers and tensor
    arena, autotuner accounting, the fault-injection plan and
    the observability recorder.  There is no process-wide default: every
    evaluation entry point ([Pipeline], [Unified_search], [Blockswap],
    [Fbnet], [Interpolate]) takes a required [~ctx], so whoever starts the
    work decides which caches it shares.  Because a context owns all of
    that state, evaluation is reentrant: two contexts never observe each
    other's cache hits, and a search's worker pool evaluates its batches
    against per-domain forks of one parent context, forked once per search
    and merged back into the parent at its end.  The target device is
    not part of the context — it is an explicit argument of every
    evaluation, and every memo key embeds its name. *)

type t

val create :
  ?cache_capacity:int ->
  ?fisher_capacity:int ->
  ?fault:Fault.t ->
  ?obs:Obs.t ->
  unit ->
  t
(** A fresh context.  [cache_capacity] bounds the workload-cost memo
    (default 8192) and [fisher_capacity] the Fisher-score memo (default
    4096); both evict FIFO.  [fault] (default {!Fault.none}) is the
    fault-injection plan every search through this context draws from.
    [obs] (default {!Obs.disabled}) is the observability recorder every
    evaluation through this context reports to.  The layer cache and the
    tensor arena start empty. *)

val with_obs : t -> Obs.t -> t
(** The same context (sharing caches, the layer cache, the tensor arena,
    the fault plan and the autotuner counter) reporting to a different
    observability recorder.  Because the arena is shared, a view must not
    score a candidate while another view of the same context does.  This
    is how the parallel evaluator gives each item its own trace buffer
    while keeping the worker's memo caches warm across items. *)

val fork : t -> t
(** A per-domain worker context: same capacities, fresh empty caches
    (the layer cache and the tensor arena included, so no layer or buffer
    is shared across domains) and zeroed counters, an independent copy of
    the fault plan with a zero injected count (fault draws are pure in
    (seed, key, target), so a fork trips exactly the faults the parent
    would), and a forked observability recorder whose spans open at the
    parent's current depth.  {!Parallel_eval.with_workers} forks each of a
    search's workers once, warms it with {!warm_from}, and merges it back
    with {!absorb_full} when the search ends. *)

val warm_from : t -> src:t -> int
(** Copy [src]'s cached cost and Fisher entries into this context's memos
    (existing keys win; FIFO eviction applies); returns the number of
    entries inserted.  Entries are deterministic functions of their keys,
    so warming a context can only add hits, never change a result — this
    is how daemon sessions start hot from the shared parent context, and
    how a search's forked workers start with the parent's entries. *)

val absorb_full : t -> t -> unit
(** [absorb_full parent worker] merges a finished worker into its parent,
    once, at the end of its life: the worker's cache hit/miss/eviction
    counters, its arena's take counters, autotuner accounting and
    injected-fault count are added to the parent's; its observability
    recorder is merged (metrics added, trace events appended after the
    parent's); and its cache entries are copied in as by {!warm_from}, so
    later work through the parent — the next search, or the next daemon
    session forked from it — reuses them.  A worker's counters start at
    zero, so absorbing it twice would count its work twice. *)

val save_caches : path:string -> t -> (unit, Nas_error.t) result
(** Persist both memo caches through the atomic {!Checkpoint} writer (a
    kill mid-save leaves the previous snapshot intact).  Failures come
    back as {!Nas_error.Checkpoint_error}. *)

val load_caches : path:string -> t -> (int, Nas_error.t) result
(** Merge a snapshot written by {!save_caches} into this context's memos
    and return the number of entries restored.  A missing, truncated,
    corrupt or foreign file is a structured {!Nas_error.Checkpoint_error}.
    Foreign includes a snapshot of another schema: the schema is
    [nas-pte-shared-caches-v2], and a v1 snapshot (whose Fisher keys did
    not name the network or the probe) is refused.  The caller logs the
    error and cold-starts; it never crashes. *)

(* --- accessors --------------------------------------------------------- *)

val obs : t -> Obs.t
(** The context's observability recorder ({!Obs.disabled} unless one was
    passed to {!create}). *)

val fault : t -> Fault.t
(** The fault-injection plan ({!Fault.none} by default). *)

val cost_cache : t -> float Bounded_cache.t
(** The workload-cost memo: key = device|workload-dims|schedule-hints. *)

val fisher_cache : t -> Fisher.scores Bounded_cache.t
(** The Fisher-score memo.  A score is a pure function of the network, the
    probe batch, the rebuild seed and the per-site {!Conv_impl.t} vector
    (loop steps never change what a network computes), and the key names
    exactly those four:
    [<digest of Models.config>|<digest of probe images and labels>|<rebuild
    seed>|<impl vector>], built by [Unified_search.fisher_scores].  The
    reference network of a search is the all-[Full] vector, so it is an
    ordinary entry too. *)

val layer_cache : t -> Builder.layer_cache
(** Initialized layers shared by the Fisher oracle's candidate rebuilds
    (see {!Builder}): one rebuild seed's layers at a time, private to this
    context ({!fork} and {!create} start empty; {!with_obs} shares it,
    {!warm_from} and the snapshot ignore it). *)

val arena : t -> Arena.t
(** The tensor arena every Fisher pass through this context runs in (see
    {!Arena}, {!Fisher.score}), so that a pass over shapes an earlier pass
    saw allocates almost nothing.  Ownership follows the layer cache:
    {!create} and {!fork} start it empty, {!with_obs} shares it, and
    {!warm_from} and the snapshot ignore it.  It holds at most the buffers
    of the last pass. *)

val cost_stats : t -> Bounded_cache.stats
(** Hit/miss/eviction snapshot of the workload-cost memo. *)

val fisher_stats : t -> Bounded_cache.stats
(** Hit/miss/eviction snapshot of the Fisher-score memo. *)

val note_tune : t -> int -> unit
(** Record that an autotuner sweep tried this many configurations (called
    by the pipeline on every workload-cost miss, for §7.2 accounting). *)

val tune_configs : t -> int
(** Autotuner configurations swept through this context so far. *)
