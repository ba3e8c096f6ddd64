(** Neural-network kernels over {!Tensor}.

    Activations are NCHW, convolution weights are OIHW (with the I dimension
    equal to [C_i / groups] for grouped convolution).  Every forward kernel
    has a matching backward kernel returning gradients with respect to each
    input, which powers both SGD training and the Fisher Potential pass.

    {2 Arenas}

    The kernels that the Fisher pass runs ([Graph.forward] and
    [Graph.backward_activations]) take an optional [?arena].  With one,
    every tensor a kernel returns (outputs, gradients, the batch-norm
    cache) and every scratch buffer it uses is taken from the
    arena ({!Arena.zeros}, {!Arena.floats}) instead of allocated, so the
    call must run inside {!Arena.scoped}.  A kernel that writes every cell
    of a result takes it uninitialized ({!Arena.uninit}): {!relu},
    {!relu_backward}, {!sigmoid} and its backward, {!scale_channels} and
    its backward, the pool forwards, {!upsample_nearest},
    {!upsample_nearest_backward}, {!global_avg_pool} and its backward,
    {!linear}, {!batch_norm} and its backward, {!concat_channels},
    {!split_channels_backward}, the output of {!conv2d} and the result of
    {!conv2d_backward_input} on their fast paths (im2col or the depthwise
    stencil, the gather or the depthwise stencil).  A kernel that adds
    into a result (the direct conv loops and the pool and linear
    backwards) takes it zero-filled ({!Arena.zeros}), exactly like a fresh
    one.  Either way a result's bits never depend on what the buffer held
    before; it is valid until the scope ends and must not be kept past
    it.  Without [?arena] a kernel allocates every tensor and buffer
    afresh. *)

type conv_params = {
  stride : int;
  pad : int;
  groups : int;
  dilation : int;  (** spacing between kernel taps; 1 is a dense kernel *)
}

val conv_out_dim : ?dilation:int -> int -> k:int -> stride:int -> pad:int -> int
(** Spatial output extent of a convolution ([dilation] defaults to 1). *)

(** {2 Convolution and ordered accumulation}

    The convolution kernels promise exact, reproducible sums.  Every output
    of {!conv2d} is [+0.0] plus its products [x * w] added one at a time in
    ascending (input channel, kh, kw) order, then the bias.  Every input
    gradient of {!conv2d_backward_input} is [+0.0] plus its products
    [gout * w] in ascending (output channel, kh, kw) order.  A weight
    gradient is summed over the output plane in row-major order per image,
    and the per-image sums are added in batch order.

    Two implementations keep that contract for {!conv2d} and
    {!conv2d_backward_input}.
    - The fast path gathers each output's operands into a contiguous row
      (im2col for the forward pass, a gather of [gout] for the input
      gradient) and computes a block of four output channels by two
      positions at a time in registers.  Padded taps and zero weights then
      add exact zeros.  A sum that starts at [+0.0] cannot become [-0.0],
      so for finite operands an added zero changes no bit.
    - The gather runs phase by phase.  Input row [h] meets output row
      [(h + pad - kh * dilation) / stride] through tap [kh] only when
      that division is exact, so the rows with one phase [(h + pad) mod
      stride] meet exactly the taps with [kh * dilation] congruent to it
      modulo [stride]; columns alike.  Phases run in row-major order of
      (row phase, column phase); each packs its taps in ascending (output
      channel, kh, kw) order, so an input's terms are the direct loop's
      terms in the direct loop's order, plus exact zeros for taps that
      land outside the output.  A phase that meets no tap writes [+0.0].
      At stride 1 the one phase is the whole plane.
    - Depthwise convolutions (one input channel per group) take a
      stencil instead.  Each input plane is copied into a scratch plane
      framed by zeros, and each output is [+0.0] plus all its [kh * kw]
      taps in (kh, kw) order, read without a bounds check; padded taps
      add exact zeros as above.  The input gradient is the same stencil,
      input-stationary, over zero-framed [gout] planes, in (output
      channel, kh, kw) order and phase by phase like the gather.
    - The direct loop skips padded taps (and, forward, zero weights).  It
      runs whenever an operand that meets those zeros is not finite: the
      input or weight of {!conv2d}, the weight of
      {!conv2d_backward_input}.  There [0 * inf] would add a NaN the direct
      loop never computes, so the direct loop keeps NaN placement exact.

    {!conv2d_backward} always runs the direct loop, computing the input and
    weight gradients in one pass.

    All the implementations are C, in [conv_stubs.c]: the im2col and gather
    packing, the blocked dot product, the depthwise stencils, the direct
    loops, and the finiteness scan that chooses between them.  The C is
    compiled with [-O3 -ffp-contract=off -fno-fast-math] and no [-march]
    flag: [-ffp-contract=off] keeps every
    [x * w + s] two roundings (no fused multiply-add), [-fno-fast-math]
    keeps every sum in the order above (no reassociation, so the compiler
    vectorizes only across independent outputs), and without [-march] the
    instructions are baseline x86-64 on every host.  The results are
    therefore the bits of the order above on any machine.  Each C call
    covers one (image, group), or one image for a depthwise stencil,
    after an OCaml [assert] has checked that every index it touches lies
    inside its array. *)

val conv2d :
  ?arena:Arena.t ->
  input:Tensor.t ->
  weight:Tensor.t ->
  bias:Tensor.t option ->
  conv_params ->
  Tensor.t
(** [conv2d ~input ~weight ~bias p] computes a (possibly grouped, possibly
    dilated) 2-D convolution.  Input [N;Ci;H;W], weight [Co;Ci/g;Kh;Kw],
    output [N;Co;Ho;Wo].  [Ci] and [Co] must be divisible by [p.groups]. *)

val conv2d_backward_input :
  ?arena:Arena.t ->
  input:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  conv_params ->
  Tensor.t
(** Gradient of {!conv2d} w.r.t. its input alone ([input] supplies only the
    shape).  Bit for bit the first component of {!conv2d_backward}; the
    Fisher pass calls it to skip the weight gradient. *)

val conv2d_backward :
  input:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  conv_params ->
  Tensor.t * Tensor.t * Tensor.t
(** Gradients (w.r.t. input, weight, bias) of {!conv2d}. *)

(** {2 ReLU and batch norm}

    {!relu}, {!relu_backward}, {!batch_norm} and {!batch_norm_backward}
    are C as well ([elementwise_stubs.c], same flags, one call per tensor).
    Their results keep the bits of plain IEEE arithmetic in the order
    below.  ReLU and the per-element batch-norm loops may vectorize across
    elements, which are independent.  Each batch-norm sum is one chain,
    [+0.0] plus its terms in (image, plane index) order, then divided by
    the count [N * H * W] where noted:
    - the mean of channel [c], [sum x / count];
    - its variance, [sum (x - mean)^2 / count], with [inv_std = 1 /
      sqrt (var + eps)];
    - backward, [sum_g = sum gout] (the beta gradient) and [sum_gx = sum
      gout * xhat] (the gamma gradient).
    Four channels' chains run side by side, each in its own order.  The
    input gradient is [coeff * ((count * gout - sum_g) - xhat * sum_gx)]
    with [coeff = gamma * inv_std / count].

    Where both operands of a product or a sum are NaN, the result carries
    the payload of the left operand as written above ([gamma] in
    [gamma * xhat], the running sum in every sum), as the OCaml loops did;
    the C code picks it explicitly, because a C compiler may swap the
    operands of a commutative operation. *)

val relu : ?arena:Arena.t -> Tensor.t -> Tensor.t
(** Elementwise [x > 0 ? x : +0.0] ([+0.0] for [-0.0] and NaN). *)

val relu_backward : ?arena:Arena.t -> input:Tensor.t -> gout:Tensor.t -> unit -> Tensor.t
(** Gradient of {!relu} w.r.t. its input: [gout] where [input > 0], [+0.0]
    elsewhere. *)

(** {2 Other kernels} *)

val sigmoid : ?arena:Arena.t -> Tensor.t -> Tensor.t
(** Elementwise logistic function, used by squeeze-excite gates. *)

val sigmoid_backward : ?arena:Arena.t -> out:Tensor.t -> gout:Tensor.t -> unit -> Tensor.t
(** Gradient of {!sigmoid} w.r.t. its input, computed from the forward
    output ([g * out * (1 - out)]). *)

val scale_channels : ?arena:Arena.t -> input:Tensor.t -> gate:Tensor.t -> unit -> Tensor.t
(** [scale_channels ~input ~gate] multiplies every spatial plane of the NCHW
    [input] by the matching per-channel gate value ([gate] is [N;C]).  This
    is the broadcast product a squeeze-excite block applies. *)

val scale_channels_backward :
  ?arena:Arena.t ->
  input:Tensor.t ->
  gate:Tensor.t ->
  gout:Tensor.t ->
  unit ->
  Tensor.t * Tensor.t
(** Gradients of {!scale_channels} (w.r.t. input and gate); the gate
    gradient sums [gout * input] over each spatial plane. *)

val max_pool2d :
  ?arena:Arena.t -> Tensor.t -> size:int -> stride:int -> pad:int -> Tensor.t * int array
(** Returns the pooled tensor and the flat argmax index of each output cell
    (or -1 where the window saw only padding), consumed by the backward
    pass. *)

val max_pool2d_backward :
  ?arena:Arena.t -> input:Tensor.t -> gout:Tensor.t -> indices:int array -> unit -> Tensor.t
(** Gradient of {!max_pool2d}: each output gradient goes to its argmax. *)

val avg_pool2d : ?arena:Arena.t -> Tensor.t -> size:int -> stride:int -> pad:int -> Tensor.t
(** Padding cells count as zeros in the average (count-include-pad). *)

val avg_pool2d_backward :
  ?arena:Arena.t ->
  input:Tensor.t ->
  gout:Tensor.t ->
  size:int ->
  stride:int ->
  pad:int ->
  unit ->
  Tensor.t
(** Gradient of {!avg_pool2d}. *)

val upsample_nearest : ?arena:Arena.t -> Tensor.t -> int -> Tensor.t
(** [upsample_nearest t f] repeats every spatial cell [f] times along both
    spatial axes, copying its bits (C, in [elementwise_stubs.c], one call
    per tensor). *)

val upsample_nearest_backward :
  ?arena:Arena.t -> input:Tensor.t -> gout:Tensor.t -> int -> Tensor.t
(** Gradient of {!upsample_nearest}: each input cell is [+0.0] plus its
    [f * f] output gradients in (dh, dw) order.  Where a sum meets two
    NaNs it carries the running sum's payload, as for batch norm (C, in
    [elementwise_stubs.c]). *)

val global_avg_pool : ?arena:Arena.t -> Tensor.t -> Tensor.t
(** [N;C;H;W] -> [N;C]. *)

val global_avg_pool_backward :
  ?arena:Arena.t -> input:Tensor.t -> gout:Tensor.t -> unit -> Tensor.t
(** Gradient of {!global_avg_pool}. *)

val linear :
  ?arena:Arena.t -> input:Tensor.t -> weight:Tensor.t -> bias:Tensor.t -> unit -> Tensor.t
(** Input [N;F], weight [Out;F], bias [Out] -> [N;Out]. *)

val linear_backward :
  ?arena:Arena.t ->
  input:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  unit ->
  Tensor.t * Tensor.t * Tensor.t
(** Gradients (w.r.t. input, weight, bias) of {!linear}. *)

type bn_cache
(** Values saved by the batch-norm forward pass for its backward pass. *)

val batch_norm :
  ?arena:Arena.t ->
  input:Tensor.t ->
  gamma:Tensor.t ->
  beta:Tensor.t ->
  eps:float ->
  unit ->
  Tensor.t * bn_cache
(** Per-channel normalization over the N, H, W axes (training statistics):
    [xhat = (x - mean) * inv_std] and [out = gamma * xhat + beta]. *)

val batch_norm_backward :
  ?arena:Arena.t -> gout:Tensor.t -> cache:bn_cache -> unit -> Tensor.t * Tensor.t * Tensor.t
(** Gradients (w.r.t. input, gamma, beta). *)

val concat_channels : ?arena:Arena.t -> Tensor.t list -> Tensor.t
(** Concatenates NCHW tensors along the channel axis. *)

val split_channels_backward :
  ?arena:Arena.t -> gout:Tensor.t -> parts:int list -> unit -> Tensor.t list
(** Inverse of {!concat_channels} for gradients: splits [gout] into chunks of
    [parts] channels. *)

val softmax_cross_entropy : logits:Tensor.t -> labels:int array -> float * Tensor.t
(** Mean cross-entropy loss over the batch and its gradient w.r.t. logits. *)

val accuracy : logits:Tensor.t -> labels:int array -> float
(** Top-1 accuracy in [0,1]. *)

val pad_channels : Tensor.t -> int -> Tensor.t
(** [pad_channels t c] zero-pads the channel axis of an NCHW tensor up to [c]
    channels (used by downsampling shortcuts). *)
