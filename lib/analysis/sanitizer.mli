(** Differential sanitizer: static analyzer vs. the sampling oracle.

    Fuzzes seeded random transformation plans over random convolution
    nests and checks that {!Direction.check} agrees with
    {!Poly_legality.check} whenever the static verdict is decisive.  The
    contract gating CI ({!passed}): zero disagreements and an [Unknown]
    rate below 20%.  A disagreement means one of the two independent
    legality implementations is wrong — the report carries the exact plan
    and dependence set to replay it. *)

type case = {
  cs_index : int;  (** corpus position, for replay *)
  cs_plan : string;  (** the plan, in {!Plan_lint.of_string} syntax *)
  cs_deps : string;  (** rendered dependence set *)
  cs_static : Direction.verdict;
  cs_oracle : bool;
}

type report = {
  rs_total : int;
  rs_agree_legal : int;  (** both verdicts legal *)
  rs_agree_illegal : int;  (** both verdicts illegal *)
  rs_unknown : int;  (** static verdict [Unknown], oracle skipped *)
  rs_disagreements : case list;  (** decisive static verdicts the oracle contradicts *)
  rs_static_time : float;  (** CPU seconds in the static analyzer *)
  rs_oracle_time : float;  (** CPU seconds in the sampling oracle *)
}

val run : ?max_points:int -> seed:int -> n:int -> unit -> report
(** Fuzz [n] seeded plans; [max_points] is forwarded to the oracle. *)

val unknown_rate : report -> float
(** Fraction of the corpus the static analyzer declined to decide. *)

val passed : ?max_unknown_rate:float -> report -> bool
(** The CI gate: no disagreements and [unknown_rate] below the bound
    (default 0.2). *)

val pp_report : Format.formatter -> report -> unit
(** Summary line plus one replayable line per disagreement. *)

(** {1 Typed-vs-Poly differential fuzzer}

    Checks the typing judgment {!Plan_types} against the real
    transformations on a seeded corpus of random convolution nests, in
    both directions.  A plan emitted by the typed generator must apply
    through {!Plan_lint.apply} (i.e. {!Poly}), must predict the applied
    schedule's abstraction digit-for-digit, and its [T-Legal] verdict must
    agree with the sampling oracle {!Poly_legality.check}.  Conversely, for
    a rejection-sampled random plan that {!Poly} applies, {!Plan_types.infer}
    may reject a step only with [Warn] findings, and the abstract state it
    tracks must match the applied schedule.  The CI gate
    ({!typed_passed}): zero disagreements, [Unknown] rate below 20%. *)

type typed_case = {
  tp_index : int;  (** corpus position, for replay *)
  tp_plan : string;  (** the plan, in {!Plan_lint.of_string} syntax *)
  tp_kind : string;  (** which direction broke, and how *)
  tp_detail : string;  (** human-readable evidence *)
}

type typed_report = {
  tt_total : int;  (** corpus cases (each fuzzes one typed + one random plan) *)
  tt_typed_lint_clean : int;  (** typed-generated plans that applied through {!Poly} *)
  tt_env_agree : int;  (** typed plans whose predicted env matched the schedule *)
  tt_legal_agree : int;  (** decisive [T-Legal] verdicts agreeing with the oracle *)
  tt_unknown : int;  (** [T-Legal] undecided (direction analysis [Unknown]) *)
  tt_survivors_typed : int;  (** applied random plans that typed, state matching *)
  tt_dirty_rejected : int;
      (** applied random plans the strict judgment rejected with warnings
          only, state matching *)
  tt_disagreements : typed_case list;  (** exactness violations, in corpus order *)
}

val run_typed : ?max_points:int -> seed:int -> n:int -> unit -> typed_report
(** Fuzz [n] seeded cases; [max_points] is forwarded to the oracle. *)

val typed_unknown_rate : typed_report -> float
(** Fraction of cases where [T-Legal] declined to decide. *)

val typed_passed : ?max_unknown_rate:float -> typed_report -> bool
(** The CI gate: no disagreements and {!typed_unknown_rate} below the
    bound (default 0.2). *)

val pp_typed_report : Format.formatter -> typed_report -> unit
(** Summary line plus one replayable line per disagreement. *)
