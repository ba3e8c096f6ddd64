(** The static type system for the plan language — the one place that
    decides which {!Plan_lint.step}s are legal.

    Assigns every step a typing rule over an abstract schedule state: the
    iteration domain (channel extents, kept current across neural
    transformations) plus the mixed-radix digit structure of every loop —
    exactly the part of a {!Poly.t} that decides whether a step is
    applicable, with the per-loop annotations erased.

    A failed side condition is a {!Diagnostic.t}.  [Error] findings mean
    the real transformation ({!Plan_lint.apply}, i.e. {!Poly}) rejects the
    step; [Warn] findings ([no-op], [unroll-overflow]) mean it applies but
    leaves the abstract state unchanged.  The judgment is {e strict}: a
    step with any finding is ill-typed, so typed plans never contain
    no-ops.  The linter {!lint} is the same judgment projected onto
    concrete schedules: it reports {!infer}'s findings and applies
    warning-only steps.

    The reference is {!Poly} itself.  {!Sanitizer.run_typed} fuzzes both
    directions (typed plans apply with the predicted state and agree with
    {!Poly_legality} on [T-Legal]; plans that {!Poly} applies draw at most
    warnings) and the test-suite checks, over ill-formed steps too, that
    {!infer} reports an error exactly when {!Plan_lint.apply} raises.
    Inverting the rules yields a generator ({!choices}, {!enumerate},
    {!sample_plan}) that emits only well-typed plans by construction — no
    rejection sampling. *)

type env = {
  te_domain : (string * int) list;
      (** iterator extents — the channel/shape state; neural steps
          ([bottleneck]) shrink these *)
  te_loops : Poly.digit list list;
      (** one digit list per loop, outermost first; weight-1 single-digit
          loops are plain iterators, multi-digit loops are fused, shared
          digits come from grouping *)
}

val env_of_schedule : Poly.t -> env
(** Abstract a schedule: keep domain and digits, erase annotations. *)

val env_of_nest : Loop_nest.conv_nest -> env
(** The typing environment of a nest's baseline schedule. *)

val schedule_of_env : env -> Poly.t
(** Concretize an environment back into a schedule with default
    annotations and an empty neural log ([env_of_schedule] is its left
    inverse). *)

val loop_count : env -> int
(** Number of loops in the abstract schedule. *)

val loop_extent : Poly.digit list -> int
(** Trip count of one abstract loop (product of its digit extents). *)

val equal : env -> env -> bool
(** Structural equality of environments. *)

val rule_name : Plan_lint.step -> string
(** The typing rule governing a step ([T-Split], [T-Group], ...), used to
    name the violated rule in diagnostics and in the CLI's [--typecheck]
    output. *)

val pp : Format.formatter -> env -> unit
(** One-line rendering: the domain, a turnstile, then each loop as
    [digits[extent]]. *)

val infer : env -> Plan_lint.step -> (env, Diagnostic.t list) result
(** One-step judgment: [Ok env'] with the successor state when the step
    is well-typed, [Error diags] naming the violated rule otherwise.
    [diags] holds an [Error] exactly when {!Plan_lint.apply} raises
    {!Poly.Illegal}; warning-only findings leave the state unchanged.  The
    successor mirrors {!Plan_lint.apply} exactly:
    [infer (env_of_schedule s) step = Ok (env_of_schedule (apply s step))]
    whenever the step is well-typed. *)

val lint : Poly.t -> Plan_lint.step list -> Poly.t option * Diagnostic.t list
(** The judgment as a linter: walk a plan over a concrete schedule,
    collecting {!infer}'s findings and applying every step without an
    error through {!Plan_lint.apply}.  Stops at the first error (further
    steps would lint against a schedule that cannot exist), reporting an
    [illegal-transformation] if [apply] rejects a step anyway; returns the
    final schedule when every step applied. *)

val check :
  ?deps:Poly_legality.dependence list ->
  env ->
  Plan_lint.step list ->
  (env, Diagnostic.t list) result
(** Fold {!infer} over a plan, stopping at the first ill-typed step.
    With [?deps], additionally require the final schedule to preserve the
    dependences (rule [T-Legal], decided by {!Direction.check}); an
    [Unknown] direction verdict is conservatively rejected with code
    ["legality-unknown"]. *)

val choices : env -> Plan_lint.step list
(** Every well-typed step at [env], by rule inversion: factors range over
    divisor sets, dimensions over the loop range, iterators over the
    domain.  Complete — a step is well-typed iff it is in [choices env]
    (up to the argument bounds that make the set finite: unroll factors
    never exceed the loop extent).  Beware: contains all non-identity
    permutations for [Reorder], so it is factorial in the loop count —
    meant for small environments (tests, enumeration); use
    {!sample_step} for generation. *)

val enumerate : max_len:int -> env -> Plan_lint.step list list
(** All well-typed plans of length 1..[max_len], by depth-first expansion
    of {!choices} — exactly the plans that lint clean over the same
    bounded argument universe (the exhaustiveness test pins this). *)

val sample_step : Rng.t -> env -> Plan_lint.step option
(** One uniformly-kinded well-typed step: draw a step kind among those
    with at least one well-typed instantiation, then arguments within the
    kind (permutations are sampled, not materialized).  [None] only for
    environments admitting no step at all. *)

val sample_plan :
  Rng.t -> max_len:int -> env -> Plan_lint.step list * env
(** A random well-typed plan of length 1..[max_len] (shorter only if some
    intermediate env admits no step), with its final environment.  Every
    prefix is well-typed by construction. *)
