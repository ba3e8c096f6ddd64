(** Computation graphs for feed-forward convolutional networks.

    A graph is a topologically ordered array of nodes; node [i] may only read
    from nodes with smaller ids, so forward is a single left-to-right sweep
    and backward a single right-to-left sweep.  Activation gradients are kept
    per node, which is exactly what the Fisher Potential pass consumes. *)

type op =
  | Input
  | Conv of Layer.conv
  | Batch_norm of Layer.bn
  | Relu
  | Max_pool of { size : int; stride : int; pad : int }
  | Avg_pool of { size : int; stride : int; pad : int }
  | Global_avg_pool
  | Linear of Layer.linear
  | Add  (** n-ary elementwise sum *)
  | Concat  (** channel concatenation *)
  | Identity
  | Zero  (** shape-preserving zero map (NAS-bench "none" op) *)
  | Upsample of int  (** nearest-neighbour spatial upsampling *)
  | Sigmoid  (** elementwise logistic gate (squeeze-excite) *)
  | Scale_channels
      (** two inputs [main; gate]: multiplies each channel plane of the NCHW
          [main] activation by the matching [N;C] gate value *)

type node = {
  id : int;
  op : op;
  inputs : int list;
  label : string;
}

type t = private {
  nodes : node array;
  output_id : int;
}

val make : node array -> output_id:int -> t
(** Validates topological ordering of the node array. *)

type run
(** State of one forward (and optionally backward) pass. *)

val forward : ?arena:Arena.t -> t -> Tensor.t -> run
(** Runs the graph on a batch (NCHW input tensor).  With [arena], every
    activation the pass computes (the input and identities aside), the
    copy an [Add] node starts from and a [Zero] node's output come from
    the arena (see {!Ops}): the run is then valid only inside the
    {!Arena.scoped} that took them. *)

val output : run -> Tensor.t
(** Activation of the output node. *)

val activation : run -> int -> Tensor.t
(** Activation of an arbitrary node. *)

val backward : t -> run -> loss_grad:Tensor.t -> unit
(** Back-propagates a gradient of the loss w.r.t. the output node,
    accumulating parameter gradients into their [p_grad] buffers and storing
    per-node activation gradients in the run. *)

val backward_activations :
  ?arena:Arena.t -> t -> run -> loss_grad:Tensor.t -> earliest:int -> unit
(** The same sweep as {!backward}, for activation gradients only: it
    leaves every [p_grad] untouched, and a convolution calls
    {!Ops.conv2d_backward_input}, skipping its weight gradient.  It
    stops once node [earliest] has its gradient, so every node with
    [id >= earliest] gets bit for bit the activation gradient {!backward}
    gives it; earlier nodes may hold partial sums or none.  With [arena]
    every gradient it stores, including the copy that starts each node's
    gradient sum, comes from the arena, with the same validity rule as
    {!forward}. *)

val activation_grad : run -> int -> Tensor.t
(** Gradient of the loss w.r.t. a node's activation.  Only valid after
    {!backward} (or, for the nodes it covers, {!backward_activations});
    raises [Invalid_argument] if the node received no gradient. *)

val params : t -> Layer.param list
(** All trainable parameters, in node order. *)

val param_count : t -> int
(** Total scalar parameter count. *)

val zero_grads : t -> unit
(** Zeroes every parameter gradient in place. *)

val node_count : t -> int
(** Number of nodes in the graph. *)

val node : t -> int -> node
(** The node with the given id. *)
