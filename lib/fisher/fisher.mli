(** Fisher Potential (§5.2): a train-free legality check for neural
    transformations.

    For one probe minibatch at initialization, the channel saliency of an
    activation A with loss gradient g is (eq. 4)

      delta_c = 1/(2N) * sum_n ( sum_{ij} A_nij * g_nij )^2

    a layer's score is the sum over its channels (eq. 5) and the network's
    Fisher Potential is the sum over its scored blocks.  A candidate network
    is legal iff its potential is not below the original's (up to a small
    slack). *)

type scores = {
  per_site : float array;  (** one score per transformable site, eq. 5 *)
  total : float;  (** network Fisher Potential *)
}

val channel_score : activation:Tensor.t -> grad:Tensor.t -> channel:int -> float
(** [delta_c] of one channel of an [N;C;H;W] activation (eq. 4). *)

val layer_score : activation:Tensor.t -> grad:Tensor.t -> float
(** Sum of {!channel_score} over the channels (eq. 5). *)

val score_graph :
  ?arena:Arena.t -> Graph.t -> fisher_nodes:int array -> Train.batch -> scores
(** Graph-level variant for networks outside the model zoo. *)

val score : ?arena:Arena.t -> Models.t -> Train.batch -> scores
(** Runs one forward pass and one activation-only backward pass
    ({!Graph.backward_activations}, down to the earliest scored node) at
    the model's current (initialization) weights and aggregates the
    per-site scores.  It neither reads nor writes parameter gradients.

    With [arena] the whole pass runs in one {!Arena.scoped}: every
    activation, gradient and im2col buffer comes from the arena and goes
    back to it when the pass ends, so a pass over shapes the arena has
    seen allocates almost nothing.  The scores are bit for bit those
    without an arena.  Raises [Invalid_argument] if the arena is already
    in use. *)

val potential : Models.t -> Train.batch -> float
(** [ (score m b).total ]. *)

val finite : scores -> bool
(** Whether the total and every per-site score are finite.  A NaN score
    must be rejected explicitly: NaN compares false under [>=], so an
    unguarded candidate would silently pass or fail the legality check. *)

val clipped_total : baseline:scores -> scores -> float
(** Per-site scores clipped at the original's before summation — a
    one-sided test of capacity {e loss}.  At our scale, realizations that
    deepen a block (bottleneck trios, depthwise-separable pairs) inflate
    their site's raw score; clipping makes the totals comparable across
    structures and is strictly more conservative than the paper's
    unclipped comparison.  Both site arrays must be index-aligned. *)

val legal : ?slack:float -> original:float -> candidate:float -> unit -> bool
(** [legal ~original ~candidate] accepts iff
    [candidate >= (1 - slack) * original]; default slack is 0.05. *)

val legal_clipped : ?slack:float -> baseline:scores -> scores -> bool
(** Clipped-total legality: the candidate is legal iff its
    {!clipped_total} retains at least [(1 - slack)] of the baseline's total
    (default slack 0.12). *)
