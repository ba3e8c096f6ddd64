(** One seeded search job.  A candidate's fate is a pure function of the
    network, the probe minibatch and the seed (§6); {!run} is the one
    place that derives all three from the job, so the CLI, the daemon,
    the benchmarks and the tests agree by construction. *)

type t = {
  jb_network : string;  (** model-zoo name, e.g. ["resnet18"] *)
  jb_device : string;  (** device name, e.g. ["CPU"] *)
  jb_seed : int;  (** the seed the model, probe and search derive from *)
  jb_candidates : int;  (** candidate pool size *)
  jb_strategy : Strategy.t option;  (** [None]: the search's default *)
  jb_mutate_prob : float option;  (** per-site mutation probability *)
  jb_budget : int option;  (** cap on candidate evaluations *)
  jb_workers : int;  (** evaluation domains *)
  jb_fault_rate : float;  (** injected fault rate, [0,1] *)
  jb_fault_seed : int option;  (** fault draw seed (default: [jb_seed]) *)
}

val make :
  ?network:string -> ?device:string -> ?candidates:int -> ?seed:int ->
  ?strategy:Strategy.t -> ?mutate_prob:float -> ?budget:int -> ?workers:int ->
  ?fault_rate:float -> ?fault_seed:int ->
  unit -> t
(** Defaults: resnet18 on CPU, 40 candidates, seed 42, 1 worker, no
    budget, no faults, the search's default strategy and mutation
    probability. *)

val validate : t -> (unit, string) result
(** The one range check of a job: a {!Zoo} network, [candidates],
    [workers] and [budget] at least 1, [fault_rate] and [mutate_prob] in
    [0,1].  The error is one line, e.g. ["candidates must be >= 1"].  The
    device is not checked: the daemon answers an unknown device per
    request, after parsing. *)

val fault : t -> Fault.t
(** The job's fault plan, to pass to {!Eval_ctx.create}: {!Fault.none} at
    rate 0. *)

val probe_batch : Rng.t -> input_size:int -> Train.batch
(** The fixed Fisher probe minibatch: 16 of 64 synthetic 10-class images. *)

val run :
  ctx:Eval_ctx.t ->
  ?stop:(unit -> bool) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?on_sched_stats:(Parallel_eval.run_stats -> unit) ->
  t ->
  Models.t * Unified_search.result
(** [Rng.create seed], the model built from it, the probe batch from its
    first split and {!Unified_search.search} on [ctx] from its second;
    the hooks pass through unchanged.  Faults come from [ctx] alone.  The
    model build and the probe batch run in [build] and [probe] spans on
    [ctx]'s recorder, ahead of the search's own spans.
    @raise Invalid_argument on an unknown network or device. *)
