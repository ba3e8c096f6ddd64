(** Imperative graph-construction helper used by the model zoo.

    Nodes are appended in topological order; [realize_site] materializes a
    transformable convolution site under a chosen {!Conv_impl.t} and records
    the node whose activation the Fisher Potential pass should score.

    Weight initialization is {e label-addressed}: every layer's weights are
    drawn from an RNG seeded by (build seed, layer label).  Two networks
    built from the same seed therefore share identical weights in every
    layer they have in common, which makes Fisher Potential comparisons
    between candidate structures measure the {e structural} difference
    rather than initialization noise (the same device is used by
    weight-sharing NAS supernets).

    Because a layer is a pure function of (build seed, label, shape), it
    can also be {e shared}: a builder given a {!layer_cache} looks each
    convolution, batch norm and linear layer up by its label and every
    shape, stride, padding, group and dilation parameter, and reuses the
    layer an earlier build of the same seed initialized.  The resulting
    graph is indistinguishable from a fresh build (same
    {!Models.graph_digest}, bit-identical forward pass), but its layers
    are physically shared with every other graph built through the same
    cache, so it is only safe for passes that write no parameter — the
    Fisher oracle, whose forward and activation-only backward read
    weights and never touch [p_value] or [p_grad].  Training and the
    experiments build without a cache. *)

type layer_cache
(** Initialized layers of one build seed, keyed by label and shape.  It
    holds one seed's layers at a time (a build under another seed empties
    it first), which bounds its memory by the distinct layers of one
    network's candidates.  Not domain-safe: give each domain its own
    cache. *)

val layer_cache : unit -> layer_cache
(** A fresh, empty cache. *)

type t

val create : ?layers:layer_cache -> Rng.t -> t
(** Draws the build seed from the given generator.  With [layers], every
    conv, batch-norm and linear layer is shared through that cache. *)

val input : t -> int
(** Adds the input node (must be first). *)

val add : t -> ?label:string -> Graph.op -> int list -> int
(** Appends an operation node and returns its id. *)

val layer_rng : t -> string -> Rng.t
(** The label-addressed generator for a layer's weights. *)

val conv_bn_relu :
  t ->
  label:string ->
  in_channels:int ->
  out_channels:int ->
  kernel:int ->
  stride:int ->
  ?pad:int ->
  ?groups:int ->
  ?dilation:int ->
  ?relu:bool ->
  int ->
  int
(** Convenience: conv -> batch norm -> (optional) relu chain from the given
    input node; default padding is [dilation * (kernel / 2)], which preserves
    the spatial extent for odd kernels at stride 1. *)

val linear_layer : t -> label:string -> in_features:int -> out_features:int -> int -> int
(** Appends a fully connected layer. *)

val realize_site : t -> Conv_impl.site -> Conv_impl.t -> int -> int
(** [realize_site b site impl input] appends the subgraph implementing the
    site under [impl] (conv/bn/relu structure as described in
    {!Conv_impl}) and returns its output node.  The block's output node is
    recorded as a Fisher-scored node. *)

val fisher_nodes : t -> int list
(** Fisher-scored node ids, in realization order. *)

val finish : t -> output:int -> Graph.t
