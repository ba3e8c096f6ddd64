(** The named transformation sequences of the paper.

    §7.3 identifies three interleaved sequences that dominate the best
    networks, and §5.3 derives the spatial bottleneck from primitive
    transformations.  Each sequence is written once, as a chain of
    {!Plan_lint.step}s ({!plans}), the same plan language the analyzer
    types with [Plan_types].  Everything else is derived:

    - [plan] — the {!Site_plan.t} the search and the compile pipeline use
      (structural rewrite + schedule hints);
    - [schedules] — the chain applied to a convolution's loop nest, so the
      derivation itself is executable and testable (the loop-IR test-suite
      checks the semantics of each); [--analyze] types the same chain. *)

type t =
  | Plain_group of int  (** the NAS grouping operation *)
  | Plain_bottleneck of int
  | Plain_depthwise
  | Seq1 of { g : int; split : int }
      (** [split -> interchange -> group -> interchange -> fuse]: grouping
          over a split spatial domain (the chain in {!plans} stops before
          the fuse) *)
  | Seq2 of { g : int; unroll : int }
      (** [unroll -> group -> interchange]: output channels unrolled, the
          remaining domain grouped (the chain in {!plans} groups first and
          unrolls the group slice, so an unroll above [g] is clamped to
          [g]) *)
  | Seq3 of { g1 : int; g2 : int }
      (** [split -> group -> interchange -> group]: different grouping
          factors on the two halves of the output-channel domain *)
  | Spatial_bneck of int
      (** §5.3: interchange/bottleneck chain over the spatial iterators *)

val name : t -> string

val impl : t -> Conv_impl.t
(** The structural rewrite the sequence makes at a site; its loop steps
    change only the schedule, so they do not appear here. *)

val plan : t -> Site_plan.t
(** The {!Site_plan.t} realising the sequence: {!impl} plus the schedule
    hints it seeds the autotuner with. *)

val valid : Conv_impl.site -> t -> bool
(** Whether the sequence's structural rewrite is applicable to the site:
    {!Conv_impl.valid} of {!impl}.  The loop steps' own conditions are not
    checked, so a [Seq1] on an odd output plane is valid and its split hint
    is dropped by the autotuner. *)

val standard_menu : Conv_impl.site -> t list
(** Every named sequence, with its standard parameters (§7.3 uses g=2,
    unroll=16, g1=2/g2=4), filtered to those valid for the site. *)

val typed_menu : Conv_impl.site -> t list
(** The site's full typed choice space, derived from {!Conv_impl.valid}:
    each family's factors range over the divisors of the extent its
    rewrite divides (input channels for groupings, output channels for
    bottlenecks, the output plane for spatial shrinks) and are kept when
    {!valid}, so every entry is valid by construction.  [Seq1] entries
    (split 2) are offered only on even output planes, where the split hint
    applies.  Order: groups, bottlenecks, depthwise, spatial bottlenecks,
    [Seq1], [Seq2], [Seq3], each by ascending factor.

    It contains every {!valid} entry of {!standard_menu} except
    [Seq1 { split = 2; _ }] on odd output planes, which {!valid} accepts
    but this menu leaves out. *)

val plans : t -> Loop_nest.conv_nest -> (Poly.t * Plan_lint.step list) list
(** The literal transformation chain over an ungrouped nest: a base
    schedule and the steps to apply to it.  [Seq3] returns two chains, one
    per output-channel half, each over the half nest's baseline; every
    other sequence returns one over the nest's baseline.  Loop positions
    assume the ungrouped baseline, so on another nest a chain may not
    type. *)

val schedules : t -> Loop_nest.conv_nest -> Poly.t list
(** Each of {!plans} folded through {!Plan_lint.apply}.  Raises
    {!Poly.Illegal} where a step does not apply. *)

val is_dominant : t -> bool
(** True for the three §7.3 sequences. *)
