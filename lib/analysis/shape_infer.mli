(** Static shape and channel inference for convolution plans.

    Propagates the dimensions of a {!Loop_nest.conv_nest} through the
    neural transformations a schedule applies (bottleneck, group,
    depthwise), flagging channel and group divisibility violations before
    anything is lowered or run.  Also checks that a site record is
    internally consistent, and bounds-checks the quasi-affine accesses of a
    lowered program by interval arithmetic on its index terms. *)

type t = {
  sh_co : int;
  sh_ci : int;
  sh_oh : int;
  sh_ow : int;
  sh_kh : int;
  sh_kw : int;
  sh_groups : int;  (** effective group count, baseline times applied factors *)
}

val of_nest : Loop_nest.conv_nest -> t
(** The untransformed shape of a convolution nest. *)

val extent_of : t -> string -> int option
(** Extent of a convolution iterator ([co], [ci], [oh], [ow], [kh], [kw]),
    [None] for other names. *)

val apply : t -> Poly.neural_op -> (t, Diagnostic.t) result
(** One neural transformation: the transformed shape, or the diagnostic
    explaining why the transformation is ill-formed on this shape. *)

val of_log : Loop_nest.conv_nest -> Poly.neural_op list -> t * Diagnostic.t list
(** Fold {!apply} over a neural log; ill-formed steps contribute their
    diagnostic and leave the shape unchanged. *)

val check_schedule : Loop_nest.conv_nest -> Poly.t -> Diagnostic.t list
(** Replay a schedule's neural log on the nest and cross-check the
    inferred extents against the schedule's own domain ([shape-drift]
    would indicate an internal inconsistency). *)

val check_site : Conv_impl.site -> Diagnostic.t list
(** Internal consistency of a site record itself, independent of any
    implementation choice: positive extents, baseline grouping dividing
    both channel counts, stride tiling the input plane.  The zoo gate runs
    this over every site of every registered family. *)

val index_max : Loop_nest.lir_loop array -> Loop_nest.index -> int
(** Tight upper bound of a quasi-affine index over the loop space. *)

val bounds_check : Loop_nest.program -> Diagnostic.t list
(** Flag accesses whose {!index_max} reaches past the tensor's element
    count ([out-of-range]), for output, weight and input. *)
