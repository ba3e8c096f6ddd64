(** The paper's unified search (§6): enumerate random interleaved
    transformation sequences, reject capacity-damaging candidates with the
    Fisher Potential legality check (no training), and rank the survivors
    with the autotuned hardware cost model.

    Candidate evaluation is guarded: a malformed plan, a non-finite
    Fisher score or a cost-model divergence quarantines that one candidate
    (recorded with a structured {!Nas_error.t}) and the search continues to
    a valid survivor.  A deterministic fault-injection layer ({!Fault}) and
    checkpoint/resume make the degradation path testable and an
    interrupted search resumable. *)

type candidate = {
  cd_plans : Site_plan.t array;
  cd_fisher : float;
  cd_latency_s : float;
  cd_macs : int;
  cd_params : int;
}

type result = {
  r_best : candidate;
  r_baseline : Pipeline.evaluated;
  r_baseline_fisher : float;
  r_explored : int;  (** configurations generated *)
  r_rejected : int;  (** configurations rejected by the Fisher check *)
  r_quarantined : (string * Nas_error.t) list;
      (** failed candidates: (plan signature, structured error), sorted by
          signature so the attribution output is deterministic and
          diffable across runs and worker counts *)
  r_evaluated : int;  (** configurations processed in this run *)
  r_complete : bool;
      (** false iff the budget capped the run below its target or the
          stop hook fired *)
  r_checkpoint_error : Nas_error.t option;
      (** first checkpoint-write failure, if any — the search itself is
          unaffected, but resume will not be possible *)
  r_wall_s : float;  (** search wall-clock time *)
}

val random_plans :
  Rng.t -> Models.t -> mutate_prob:float -> Site_plan.t array
(** One candidate configuration: each site is left at baseline or assigned a
    random valid sequence from {!Sequences.standard_menu} with probability
    [mutate_prob]. *)

val plans_signature : Site_plan.t array -> string
(** The per-site plan names joined with [";"] — the key used for
    quarantine attribution, guided-round deduplication and served answers.
    Fisher memoization does not use it: loop steps change the name but not
    the score (see {!fisher_oracle}). *)

(** {2 The Fisher oracle} *)

type fisher_oracle = private {
  fo_model : Models.t;  (** the network whose candidates are scored *)
  fo_probe : Train.batch;  (** the fixed probe minibatch *)
  fo_seed : int;  (** the rebuild seed every candidate shares *)
  fo_prefix : string;
      (** [<digest of Models.config>|<digest of probe images and
          labels>|<rebuild seed>|], the memo-key prefix *)
  fo_reference : Fisher.scores;  (** the all-[Full] network's scores *)
}
(** Everything a Fisher score depends on besides the per-site
    implementation vector.  A candidate's score is a pure function of the
    network, the probe batch, the rebuild seed and that vector (loop steps
    never change what a network computes), so the memo key in
    {!Eval_ctx.fisher_cache} is [fo_prefix] followed by the vector. *)

val fisher_oracle : ctx:Eval_ctx.t -> Rng.t -> Models.t -> Train.batch -> fisher_oracle
(** Draws the rebuild seed (the generator's first draw), digests the
    network spec and the probe once, and scores the reference network as
    a memo lookup of the all-[Full] vector inside a [fisher] span. *)

val fisher_scores : ctx:Eval_ctx.t -> fisher_oracle -> Conv_impl.t array -> Fisher.scores
(** The memoized score of one implementation vector.  A miss rebuilds the
    candidate through [ctx]'s layer cache ({!Eval_ctx.layer_cache}) and
    runs {!Fisher.score} in [ctx]'s arena ({!Eval_ctx.arena}); the result
    is bit-identical to a fresh rebuild scored without an arena. *)

val search :
  ?candidates:int ->
  ?mutate_prob:float ->
  ?slack:float ->
  ?stop:(unit -> bool) ->
  ?budget:int ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?workers:int ->
  ?schedule:Parallel_eval.schedule ->
  ?on_sched_stats:(Parallel_eval.run_stats -> unit) ->
  ?strategy:Strategy.t ->
  ctx:Eval_ctx.t ->
  rng:Rng.t ->
  device:Device.t ->
  probe:Train.batch ->
  Models.t ->
  result
(** Runs the search (default 1000 candidates, as in §6).  [probe] is the
    fixed minibatch used for every Fisher evaluation; [slack] is the Fisher
    legality slack.

    Each candidate's per-site plans are first vetted with
    {!Static_check.candidate}, which scans them with {!Conv_impl.valid};
    an invalid candidate is quarantined before any Fisher evaluation.  The
    check adds the deterministic [analysis.static_checked] /
    [analysis.static_reject] counters that {!Report} surfaces as the
    static-vs-Fisher rejection split.

    [stop] (default: never) is a cooperative cancellation hook polled
    before each candidate evaluation — the daemon installs a deadline
    watchdog here.  The hook is latched: once it returns true no later
    candidate polls it, the run stops, returns its best-so-far incumbent
    with [r_complete = false], and saves a resumable checkpoint at the
    first unprocessed index.  With [workers > 1] the hook is polled from
    every worker domain, so it must be domain-safe (e.g.
    {!Deadline.expired} on the shared monotonic clock); cancellation is at
    candidate granularity.  A run whose hook never fires is bit-identical
    to one without a hook.

    [ctx] owns the memo caches, the fault-injection plan and the
    observability recorder.  Warm caches only add hits: a search returns
    the same result on a fresh context as on one that earlier runs have
    filled.  Faults come only from the context ({!Eval_ctx.create}
    [~fault], default {!Fault.none}): the plan injects deterministic
    faults into the Fisher oracle / cost model / plan generation, the
    corrupted candidates are quarantined and the search still completes.

    Every strategy runs one loop: take the next batch of candidates,
    evaluate it with {!Parallel_eval.map_range}, merge the outcomes in
    candidate-index order, save a checkpoint if one is due, repeat.
    [workers] (default 1) evaluates each batch on up to that many OCaml 5
    domains ({!Parallel_eval.with_workers}): worker 0 runs on [ctx], the
    others on contexts forked once per search and reused for every batch.
    When the search ends their cache entries and their cache and fault
    telemetry are merged into [ctx].  Any worker count returns the
    identical best candidate, rejection count and (sorted) quarantine
    list.  [workers = 1] maps the batch over [ctx] itself with zero
    scheduling overhead.

    [schedule] is ignored: idle worker domains always pull the next
    unclaimed candidate.  It remains only for perfbench, which passes
    {!Parallel_eval.Dynamic}.

    [on_sched_stats] receives the scheduler's per-worker item/steal/busy
    accounting once per batch, at any worker count — timing-dependent
    telemetry, deliberately outside the deterministic result; perfbench
    reads per-worker utilization from it.

    [budget] caps cumulative candidate evaluations.  When it caps the run
    below its target (the pool size, or [candidates] for [Guided]), the
    search saves a checkpoint (if [checkpoint] is set), returns its
    incumbent and reports [r_complete = false].

    [checkpoint] names a snapshot file: pool batches end at multiples of
    [checkpoint_every] (default 25), progress is saved after each for any
    worker count, and an existing compatible snapshot is resumed instead
    of restarting.  Without [checkpoint] the whole pool is one batch.  A
    snapshot is compatible when its strategy, device, slack, oracle
    ({!fisher_oracle}'s [fo_prefix]) and pool plan signatures all match,
    so a snapshot from another seed is ignored.  The candidate pool is
    regenerated deterministically from [rng], so a resumed search
    reproduces the uninterrupted run's best candidate.

    [strategy] (default {!Strategy.Random}) picks the candidate
    generator.  [Random] keeps the historical pool — directed seeds plus
    rejection-sampled coin flips — bit-identical to runs predating this
    argument for any [workers] count or [schedule] (asserted by a test).
    [Typed] keeps the seeds and fills the pool with
    well-typed-by-construction candidates drawn from the rule-inverted
    {!Sequences.typed_menu}; the pool is still deterministic in [rng], so
    checkpointing and parallel evaluation behave exactly as for [Random].
    [Guided] draws its batches as beam rounds: the directed seeds first,
    then each round resamples one site of each Pareto-front member
    (latency vs. Fisher, {!Pareto.front}) of the survivors so far,
    topping up with fresh typed candidates; rounds stop at [candidates]
    (or [budget]) cumulative evaluations.  Guided runs honor [stop],
    [budget], [workers] and [schedule] (deterministic merge as above) but
    ignore [checkpoint] — [r_checkpoint_error] is always [None]. *)

val speedup : result -> float
(** Baseline latency over best-candidate latency. *)

val quarantine_counts : result -> (string * int) list
(** Per-error-class quarantine counts (see {!Nas_error.class_name}). *)

val search_multi :
  ?candidates:int ->
  ?mutate_prob:float ->
  ?slack:float ->
  ctx:Eval_ctx.t ->
  rng:Rng.t ->
  devices:Device.t list ->
  probe:Train.batch ->
  Models.t ->
  (Device.t * result) list
(** {!search} once per device, each from a copy of [rng] on the shared
    [ctx]: every device sees the same pool, and the Fisher memo in [ctx]
    makes every score after the first device's a hit, so only the cost
    ranking is paid per device.  Each row equals a standalone {!search}
    on a fresh context.  [r_wall_s] is each device's own search, so only
    the first device's includes the Fisher passes. *)
