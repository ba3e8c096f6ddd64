type conv_params = { stride : int; pad : int; groups : int; dilation : int }

let conv_out_dim ?(dilation = 1) d ~k ~stride ~pad =
  ((d + (2 * pad) - (dilation * (k - 1)) - 1) / stride) + 1

(* The convolution, ReLU, batch-norm and upsampling kernels are the hot
   path of the whole project (training, Fisher passes and NAS-bench
   evaluation all funnel through them).  Their inner loops are C.
   conv_stubs.c holds the im2col forward pass and the phased gather of the
   input gradient (packing and the one ordered dot product, [dot_rows]),
   the depthwise stencils over zero-framed planes, the direct forward and
   backward loops and the [all_finite] scan; this file picks the path,
   takes the buffers and checks the bounds.  elementwise_stubs.c holds
   ReLU forward and backward, batch norm's statistics, normalize and
   backward loops, and nearest upsampling and its backward; batch norm's
   [inv_std] stays here.  dune compiles the C with -O3 -ffp-contract=off
   -fno-fast-math and no -march flag: no multiply-add is fused, no sum is
   reassociated, and no instruction depends on the host, so every output
   keeps the bits of the OCaml loops it replaced (the bitwise
   [naive_conv*], [naive_relu*], [naive_batch_norm*] and [naive_upsample*]
   references in test_tensor are the specification).

   Before every C call an [assert] checks that each index the kernel
   touches lies inside its array; the C code itself checks nothing.  The
   externals are [@@noalloc].  A conv call covers at most one (image,
   group), or one image for a depthwise stencil, so a stop-the-world
   collection on another domain never waits for a whole layer; a ReLU,
   batch-norm or upsampling call covers one tensor, which takes far less
   time than one conv call.

   Outputs.  A kernel that writes every cell of a result (the im2col
   forward, the gathered input gradient, the depthwise stencils, ReLU,
   batch norm, upsampling and its backward and the other full writers
   below) takes it from [Arena.uninit]; one that adds into it (the direct
   conv loops and the pooling and linear backwards) takes it from
   [Arena.zeros].

   Ordered accumulation (the contract is in ops.mli).  Every output of a
   kernel below is +0.0 plus its terms in one fixed order.  The fast paths
   add the same terms in the same order, plus a term [x *. 0.0] for each
   padded tap or zero weight that the direct loops skip.  For a finite [x]
   that term is +-0.0, and adding +-0.0 to a sum that starts at +0.0
   changes no bit, because such a sum is never -0.0.  For an infinite or
   NaN [x] it is NaN, so the fast paths run only after [all_finite] has
   checked every operand that can meet one of those zeros. *)

(* Whether no element is an infinity or a NaN (an exponent-bits scan). *)
external all_finite : float array -> bool = "nas_all_finite" [@@noalloc]

(* The C kernels (conv_stubs.c).  Arrays come with the offset of the slab
   the call works on; the eleven trailing ints of the conv kernels are the
   geometry of one (image, group): cig cog h w kh kw ho wo stride pad
   dilation. *)

(* input, weight, im2col scratch, output *)
external c_conv_im2col :
  float array -> (int[@untagged]) -> float array -> (int[@untagged]) -> float array ->
  float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_conv_im2col_byte" "nas_conv_im2col"
[@@noalloc]

(* weight and its phase packing, at the same offset; cig cog kh kw stride
   dilation *)
external c_gather_weights :
  float array -> float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_gather_weights_byte" "nas_gather_weights"
[@@noalloc]

(* output gradient, packed weight, gather scratch, product scratch, input
   gradient *)
external c_conv_gather :
  float array -> (int[@untagged]) -> float array -> (int[@untagged]) -> float array ->
  float array -> float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "nas_conv_gather_byte" "nas_conv_gather"
[@@noalloc]

(* input, weight, padded-plane scratch, output; groups cog h w kh kw ho wo
   stride pad dilation *)
external c_conv_depthwise :
  float array -> (int[@untagged]) -> float array -> float array -> float array ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_conv_depthwise_byte" "nas_conv_depthwise"
[@@noalloc]

(* output gradient, weight, padded-planes scratch, input gradient; the
   same ints *)
external c_conv_depthwise_input :
  float array -> (int[@untagged]) -> float array -> float array -> float array ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_conv_depthwise_input_byte" "nas_conv_depthwise_input"
[@@noalloc]

(* input, weight, output *)
external c_conv_direct :
  float array -> (int[@untagged]) -> float array -> (int[@untagged]) -> float array ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_conv_direct_byte" "nas_conv_direct"
[@@noalloc]

(* output gradient, weight, input gradient *)
external c_conv_backward_input_direct :
  float array -> (int[@untagged]) -> float array -> (int[@untagged]) -> float array ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_conv_backward_input_direct_byte" "nas_conv_backward_input_direct"
[@@noalloc]

(* input and input gradient, output gradient, weight and weight gradient *)
external c_conv_backward_direct :
  float array -> float array -> (int[@untagged]) -> float array -> (int[@untagged]) ->
  float array -> float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "nas_conv_backward_direct_byte" "nas_conv_backward_direct"
[@@noalloc]

(* [len] floats from [off] lie inside [a] (and there is at least one, so
   a C kernel never sees an empty array). *)
let in_bounds ~off ~len a = off >= 0 && len > 0 && off + len <= Array.length a

(* Every conv kernel makes one C call per (image, group).  A call touches
   only that group's slab of each operand: [cig] planes of each array in
   [ins] from offset [ib], [cog] planes of each array in [outs] from [ob],
   and their weights in each array of [wts] from [wb]; scratch buffers are
   checked by the caller.  The hoisted tap bounds keep every index inside
   its plane. *)
let slabs ~ins ~outs ~wts ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params call =
  let { stride; groups; dilation; _ } = params in
  assert (stride >= 1 && dilation >= 1);
  let cog = co / groups in
  let ilen = cig * h * w and olen = cog * ho * wo and wlen = cog * cig * kh * kw in
  for ni = 0 to n - 1 do
    for g = 0 to groups - 1 do
      let ib = ((ni * ci) + (g * cig)) * h * w and ob = ((ni * co) + (g * cog)) * ho * wo in
      let wb = g * wlen in
      assert (
        List.for_all (in_bounds ~off:ib ~len:ilen) ins
        && List.for_all (in_bounds ~off:ob ~len:olen) outs
        && List.for_all (in_bounds ~off:wb ~len:wlen) wts);
      call ~ib ~ob ~wb ~cog
    done
  done

(* Each array in [arrays] holds at least [len > 0] floats. *)
let hold len arrays = List.for_all (in_bounds ~off:0 ~len) arrays

(* A depthwise kernel makes one C call per image, over [ilen] floats of
   [input] and [olen] of [output] from the image's offsets; weights and
   scratch are checked by the caller. *)
let images ~n ~ilen ~olen input output call =
  for ni = 0 to n - 1 do
    let ib = ni * ilen and ob = ni * olen in
    assert (in_bounds ~off:ib ~len:ilen input && in_bounds ~off:ob ~len:olen output);
    call ~ib ~ob
  done

(* Direct forward loop: scatters each nonzero weight over the output
   plane. *)
let conv2d_direct ~id ~wd ~od ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params =
  let { stride; pad; dilation; _ } = params in
  slabs ~ins:[ id ] ~outs:[ od ] ~wts:[ wd ] ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params
    (fun ~ib ~ob ~wb ~cog ->
      c_conv_direct id ib wd wb od ob cig cog h w kh kw ho wo stride pad dilation)

(* im2col forward: for each (image, group) the C kernel gathers every
   output's input taps into a row of [col] (0.0 for a padded tap), then
   takes one ordered dot product per output. *)
let conv2d_im2col ~arena ~id ~wd ~od ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params =
  let { stride; pad; dilation; _ } = params in
  let col = Arena.floats arena (ho * wo * cig * kh * kw) in
  slabs ~ins:[ id ] ~outs:[ od ] ~wts:[ wd ] ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params
    (fun ~ib ~ob ~wb ~cog ->
      c_conv_im2col id ib wd wb col od ob cig cog h w kh kw ho wo stride pad dilation)

(* Depthwise forward (one input channel per group): for each image the C
   kernel copies every input plane into [plane], framed by zeros, and
   adds each output's taps without a bounds check.  The frame is [pad]
   wide, or wider after the plane where the last output's taps reach
   further (conv_stubs.c's [frame_after]). *)
let conv2d_depthwise ~arena ~id ~wd ~od ~n ~ci ~h ~w ~co ~cig:_ ~kh ~kw ~ho ~wo params =
  let { stride; pad; groups; dilation } = params in
  let framed extent out k =
    extent + pad + max pad (((out - 1) * stride) + ((k - 1) * dilation) + 1 - pad - extent)
  in
  let plane = Arena.floats arena (framed h ho kh * framed w wo kw) in
  assert (stride >= 1 && dilation >= 1 && hold (co * kh * kw) [ wd ]);
  images ~n ~ilen:(ci * h * w) ~olen:(co * ho * wo) id od (fun ~ib ~ob ->
      c_conv_depthwise id ib wd plane od ob groups (co / groups) h w kh kw ho wo stride pad
        dilation)

let conv2d ?arena ~input ~weight ~bias params =
  let ishape = Tensor.shape input and wshape = Tensor.shape weight in
  let n = ishape.(0) and ci = ishape.(1) and h = ishape.(2) and w = ishape.(3) in
  let co = wshape.(0) and cig = wshape.(1) and kh = wshape.(2) and kw = wshape.(3) in
  let { stride; pad; groups; dilation } = params in
  assert (ci mod groups = 0 && co mod groups = 0);
  assert (cig = ci / groups);
  assert (dilation >= 1);
  let ho = conv_out_dim h ~k:kh ~stride ~pad ~dilation in
  let wo = conv_out_dim w ~k:kw ~stride ~pad ~dilation in
  assert (ho > 0 && wo > 0);
  let id = Tensor.data input and wd = Tensor.data weight in
  (* The fast paths write every output; the direct loop adds into zeros. *)
  let fast = all_finite id && all_finite wd in
  let output = (if fast then Arena.uninit else Arena.zeros) arena [| n; co; ho; wo |] in
  let od = Tensor.data output in
  (if not fast then conv2d_direct
   else if cig = 1 then conv2d_depthwise ~arena
   else conv2d_im2col ~arena)
    ~id ~wd ~od ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params;
  (match bias with
  | None -> ()
  | Some b ->
      let bd = Tensor.data b in
      for ni = 0 to n - 1 do
        for co_i = 0 to co - 1 do
          let bv = bd.(co_i) in
          if bv <> 0.0 then begin
            let base = ((ni * co) + co_i) * ho * wo in
            for i = 0 to (ho * wo) - 1 do
              Array.unsafe_set od (base + i) (Array.unsafe_get od (base + i) +. bv)
            done
          end
        done
      done);
  output

(* Direct backward loops: scatter [gout * w] over the input gradient for
   every tap, zero weights included.  [conv2d_backward_direct] also sums
   each tap's weight gradient over the valid output positions in the same
   pass. *)
let conv2d_backward_input_direct ~god ~wd ~gid ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params =
  let { stride; pad; dilation; _ } = params in
  slabs ~ins:[ gid ] ~outs:[ god ] ~wts:[ wd ] ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params
    (fun ~ib ~ob ~wb ~cog ->
      c_conv_backward_input_direct god ob wd wb gid ib cig cog h w kh kw ho wo stride pad
        dilation)

let conv2d_backward_direct ~id ~god ~wd ~gid ~gwd ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params =
  let { stride; pad; dilation; _ } = params in
  slabs ~ins:[ id; gid ] ~outs:[ god ] ~wts:[ wd; gwd ] ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo
    params (fun ~ib ~ob ~wb ~cog ->
      c_conv_backward_direct id gid ib god ob wd gwd wb cig cog h w kh kw ho wo stride pad
        dilation)

(* Gather form of the input gradient, phase by phase.  Input row [hi]
   meets output row [(hi + pad - kh * dilation) / stride] through tap [kh]
   when that division is exact, so the rows with one [(hi + pad) mod
   stride] (a phase) all meet the same taps; columns alike.  The weights
   are packed once per call by phase ([wt], as long as the weights), then
   for each (image, group) the C kernel gathers, phase by phase, the
   output gradients that reach each input into a row of [gcol] (0.0 where
   no output does) and takes one ordered dot product per input against
   the packed weight.  A phase holds at most [ceil (h / stride)] by [ceil
   (w / stride)] inputs and meets at most the taps of the largest row
   phase by those of the largest column phase, which bounds [gcol] and
   the products' scratch [tmp] (unused at stride 1, where the one phase
   is the whole plane and meets every tap, and the products land in [gid]
   directly). *)
let conv2d_backward_input_gather ~arena ~god ~wd ~gid ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo
    params =
  let { stride; pad; groups; dilation } = params in
  let cog = co / groups in
  let wlen = cog * cig * kh * kw in
  let wt = Arena.floats arena (groups * wlen) in
  for g = 0 to groups - 1 do
    assert (in_bounds ~off:(g * wlen) ~len:wlen wd && in_bounds ~off:(g * wlen) ~len:wlen wt);
    c_gather_weights wd wt (g * wlen) cig cog kh kw stride dilation
  done;
  let npos = ((h + stride - 1) / stride) * ((w + stride - 1) / stride) in
  (* The most taps [t < k] with one [t * dilation mod stride]. *)
  let phase_taps k =
    let count = Array.make stride 0 in
    for t = 0 to k - 1 do
      let ph = t * dilation mod stride in
      count.(ph) <- count.(ph) + 1
    done;
    Array.fold_left max 0 count
  in
  let gcol = Arena.floats arena (npos * cog * phase_taps kh * phase_taps kw) in
  let tmp = if stride = 1 then gcol else Arena.floats arena (cig * npos) in
  assert (stride = 1 || Array.length tmp >= cig * npos);
  slabs ~ins:[ gid ] ~outs:[ god ] ~wts:[ wt ] ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params
    (fun ~ib ~ob ~wb ~cog ->
      c_conv_gather god ob wt wb gcol tmp gid ib cig cog h w kh kw ho wo stride pad dilation)

(* Depthwise input gradient: for each image the C kernel frames each
   group's output-gradient planes with zeros in [buf] and, phase by phase
   as in the gather, adds each input's taps without a bounds check.  The
   margins are conv_stubs.c's [margin_before] and [margin_after]. *)
let conv2d_backward_input_depthwise ~arena ~god ~wd ~gid ~n ~ci ~h ~w ~co ~cig:_ ~kh ~kw ~ho ~wo
    params =
  let { stride; pad; groups; dilation } = params in
  (* The framed extent along an axis of [extent] inputs and [out] outputs. *)
  let framed k extent out =
    max 0 (((k - 1) * dilation) - pad) / stride
    + out
    + max 0 (((extent - 1 + pad) / stride) - (out - 1))
  in
  let buf = Arena.floats arena (co / groups * framed kh h ho * framed kw w wo) in
  assert (stride >= 1 && dilation >= 1 && hold (co * kh * kw) [ wd ]);
  images ~n ~ilen:(ci * h * w) ~olen:(co * ho * wo) gid god (fun ~ib ~ob ->
      c_conv_depthwise_input god ob wd buf gid ib groups (co / groups) h w kh kw ho wo stride pad
        dilation)

let conv2d_backward_input ?arena ~input ~weight ~gout params =
  let ishape = Tensor.shape input and wshape = Tensor.shape weight in
  let n = ishape.(0) and ci = ishape.(1) and h = ishape.(2) and w = ishape.(3) in
  let co = wshape.(0) and cig = wshape.(1) and kh = wshape.(2) and kw = wshape.(3) in
  let oshape = Tensor.shape gout in
  let ho = oshape.(2) and wo = oshape.(3) in
  let god = Tensor.data gout and wd = Tensor.data weight in
  (* A padded tap multiplies 0.0 by a weight, so only the weight must be
     finite for the fast paths to add exact zeros.  They write every input
     gradient; the direct loop adds into zeros. *)
  let fast = all_finite wd in
  let ginput = (if fast then Arena.uninit else Arena.zeros) arena ishape in
  (if not fast then conv2d_backward_input_direct
   else if cig = 1 then conv2d_backward_input_depthwise ~arena
   else conv2d_backward_input_gather ~arena)
    ~god ~wd ~gid:(Tensor.data ginput) ~n ~ci ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params;
  ginput

let conv2d_backward ~input ~weight ~gout params =
  let ishape = Tensor.shape input and wshape = Tensor.shape weight in
  let n = ishape.(0) and ci = ishape.(1) and h = ishape.(2) and w = ishape.(3) in
  let co = wshape.(0) and cig = wshape.(1) and kh = wshape.(2) and kw = wshape.(3) in
  let oshape = Tensor.shape gout in
  let ho = oshape.(2) and wo = oshape.(3) in
  let gweight = Tensor.zeros wshape in
  let gbias = Tensor.zeros [| co |] in
  let id = Tensor.data input
  and god = Tensor.data gout
  and gwd = Tensor.data gweight
  and gbd = Tensor.data gbias in
  (* Bias gradient: sum of gout over each spatial plane. *)
  for ni = 0 to n - 1 do
    for co_i = 0 to co - 1 do
      let obase_co = ((ni * co) + co_i) * ho * wo in
      let bacc = ref 0.0 in
      for i = 0 to (ho * wo) - 1 do
        bacc := !bacc +. Array.unsafe_get god (obase_co + i)
      done;
      gbd.(co_i) <- gbd.(co_i) +. !bacc
    done
  done;
  let ginput = Tensor.zeros ishape in
  conv2d_backward_direct ~id ~god ~wd:(Tensor.data weight) ~gid:(Tensor.data ginput) ~gwd ~n ~ci
    ~h ~w ~co ~cig ~kh ~kw ~ho ~wo params;
  (ginput, gweight, gbias)

(* ReLU and batch norm (elementwise_stubs.c): one call per tensor, after
   an [assert] on every length.  The trailing ints of the batch-norm
   kernels are n, c and the plane size h * w. *)
external c_relu : float array -> float array -> (int[@untagged]) -> unit
  = "nas_relu_byte" "nas_relu"
[@@noalloc]

external c_relu_backward :
  float array -> float array -> float array -> (int[@untagged]) -> unit
  = "nas_relu_backward_byte" "nas_relu_backward"
[@@noalloc]

(* input, mean, var *)
external c_bn_stats :
  float array -> float array -> float array -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "nas_bn_stats_byte" "nas_bn_stats"
[@@noalloc]

(* input, mean, inv_std, gamma, beta, xhat, output *)
external c_bn_normalize :
  float array -> float array -> float array -> float array -> float array -> float array ->
  float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_bn_normalize_byte" "nas_bn_normalize"
[@@noalloc]

(* output gradient, xhat, gamma, inv_std, input gradient, gamma gradient,
   beta gradient *)
external c_bn_backward :
  float array -> float array -> float array -> float array -> float array -> float array ->
  float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nas_bn_backward_byte" "nas_bn_backward"
[@@noalloc]

(* Nearest upsampling (elementwise_stubs.c): one call per tensor; the
   ints are the planes n * c, h, w and the factor. *)
external c_upsample :
  float array -> float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "nas_upsample_byte" "nas_upsample"
[@@noalloc]

external c_upsample_backward :
  float array -> float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "nas_upsample_backward_byte" "nas_upsample_backward"
[@@noalloc]

let relu ?arena t =
  let out = Arena.uninit arena (Tensor.shape t) in
  let td = Tensor.data t and od = Tensor.data out in
  let len = Array.length td in
  assert (hold len [ td; od ]);
  c_relu td od len;
  out

let relu_backward ?arena ~input ~gout () =
  assert (Tensor.same_shape input gout);
  let gin = Arena.uninit arena (Tensor.shape input) in
  let id = Tensor.data input and god = Tensor.data gout and gd = Tensor.data gin in
  let len = Array.length id in
  assert (hold len [ id; god; gd ]);
  c_relu_backward id god gd len;
  gin

let sigmoid ?arena t =
  let out = Arena.uninit arena (Tensor.shape t) in
  let td = Tensor.data t and od = Tensor.data out in
  for i = 0 to Array.length td - 1 do
    Array.unsafe_set od i (1.0 /. (1.0 +. exp (-.Array.unsafe_get td i)))
  done;
  out

let sigmoid_backward ?arena ~out ~gout () =
  assert (Tensor.same_shape out gout);
  let gin = Arena.uninit arena (Tensor.shape out) in
  let od = Tensor.data out and god = Tensor.data gout and gd = Tensor.data gin in
  for i = 0 to Array.length od - 1 do
    let o = Array.unsafe_get od i in
    Array.unsafe_set gd i (Array.unsafe_get god i *. o *. (1.0 -. o))
  done;
  gin

let scale_channels ?arena ~input ~gate () =
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let gs = Tensor.shape gate in
  assert (Array.length gs = 2 && gs.(0) = n && gs.(1) = c);
  let out = Arena.uninit arena s in
  let id = Tensor.data input and gd = Tensor.data gate and od = Tensor.data out in
  let plane = h * w in
  for nc = 0 to (n * c) - 1 do
    let g = gd.(nc) in
    let base = nc * plane in
    for i = 0 to plane - 1 do
      Array.unsafe_set od (base + i) (Array.unsafe_get id (base + i) *. g)
    done
  done;
  out

let scale_channels_backward ?arena ~input ~gate ~gout () =
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let ginput = Arena.uninit arena s in
  let ggate = Arena.uninit arena [| n; c |] in
  let id = Tensor.data input
  and gd = Tensor.data gate
  and god = Tensor.data gout
  and gid = Tensor.data ginput
  and ggd = Tensor.data ggate in
  let plane = h * w in
  for nc = 0 to (n * c) - 1 do
    let g = gd.(nc) in
    let base = nc * plane in
    let acc = ref 0.0 in
    for i = 0 to plane - 1 do
      let go = Array.unsafe_get god (base + i) in
      Array.unsafe_set gid (base + i) (go *. g);
      acc := !acc +. (go *. Array.unsafe_get id (base + i))
    done;
    ggd.(nc) <- !acc
  done;
  (ginput, ggate)

let max_pool2d ?arena t ~size ~stride ~pad =
  let s = Tensor.shape t in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let ho = conv_out_dim h ~k:size ~stride ~pad in
  let wo = conv_out_dim w ~k:size ~stride ~pad in
  let out = Arena.uninit arena [| n; c; ho; wo |] in
  let indices = Array.make (Tensor.numel out) (-1) in
  let td = Tensor.data t and od = Tensor.data out in
  let oi = ref 0 in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * h * w in
      for hoi = 0 to ho - 1 do
        for woi = 0 to wo - 1 do
          let best = ref neg_infinity and best_idx = ref (-1) in
          for dh = 0 to size - 1 do
            let hi = (hoi * stride) + dh - pad in
            if hi >= 0 && hi < h then
              for dw = 0 to size - 1 do
                let wi = (woi * stride) + dw - pad in
                if wi >= 0 && wi < w then begin
                  let idx = base + (hi * w) + wi in
                  let v = Array.unsafe_get td idx in
                  if v > !best then begin
                    best := v;
                    best_idx := idx
                  end
                end
              done
          done;
          od.(!oi) <- (if !best_idx >= 0 then !best else 0.0);
          indices.(!oi) <- !best_idx;
          incr oi
        done
      done
    done
  done;
  (out, indices)

let max_pool2d_backward ?arena ~input ~gout ~indices () =
  let gin = Arena.zeros arena (Tensor.shape input) in
  let gd = Tensor.data gin and god = Tensor.data gout in
  Array.iteri (fun oi idx -> if idx >= 0 then gd.(idx) <- gd.(idx) +. god.(oi)) indices;
  gin

let avg_pool2d ?arena t ~size ~stride ~pad =
  let s = Tensor.shape t in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let ho = conv_out_dim h ~k:size ~stride ~pad in
  let wo = conv_out_dim w ~k:size ~stride ~pad in
  let out = Arena.uninit arena [| n; c; ho; wo |] in
  let td = Tensor.data t and od = Tensor.data out in
  let inv = 1.0 /. float_of_int (size * size) in
  let oi = ref 0 in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * h * w in
      for hoi = 0 to ho - 1 do
        for woi = 0 to wo - 1 do
          let acc = ref 0.0 in
          for dh = 0 to size - 1 do
            let hi = (hoi * stride) + dh - pad in
            if hi >= 0 && hi < h then
              for dw = 0 to size - 1 do
                let wi = (woi * stride) + dw - pad in
                if wi >= 0 && wi < w then
                  acc := !acc +. Array.unsafe_get td (base + (hi * w) + wi)
              done
          done;
          od.(!oi) <- !acc *. inv;
          incr oi
        done
      done
    done
  done;
  out

let avg_pool2d_backward ?arena ~input ~gout ~size ~stride ~pad () =
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let os = Tensor.shape gout in
  let ho = os.(2) and wo = os.(3) in
  let gin = Arena.zeros arena s in
  let gd = Tensor.data gin and god = Tensor.data gout in
  let inv = 1.0 /. float_of_int (size * size) in
  let oi = ref 0 in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * h * w in
      for hoi = 0 to ho - 1 do
        for woi = 0 to wo - 1 do
          let g = god.(!oi) *. inv in
          for dh = 0 to size - 1 do
            let hi = (hoi * stride) + dh - pad in
            if hi >= 0 && hi < h then
              for dw = 0 to size - 1 do
                let wi = (woi * stride) + dw - pad in
                if wi >= 0 && wi < w then begin
                  let idx = base + (hi * w) + wi in
                  gd.(idx) <- gd.(idx) +. g
                end
              done
          done;
          incr oi
        done
      done
    done
  done;
  gin

let upsample_nearest ?arena t f =
  assert (f >= 1);
  let s = Tensor.shape t in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let out = Arena.uninit arena [| n; c; h * f; w * f |] in
  let td = Tensor.data t and od = Tensor.data out in
  let len = n * c * h * w in
  assert (hold len [ td ] && hold (len * f * f) [ od ]);
  c_upsample td od (n * c) h w f;
  out

let upsample_nearest_backward ?arena ~input ~gout f =
  assert (f >= 1);
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let gin = Arena.uninit arena s in
  let god = Tensor.data gout and gd = Tensor.data gin in
  let len = n * c * h * w in
  assert (hold len [ gd ] && hold (len * f * f) [ god ]);
  c_upsample_backward god gd (n * c) h w f;
  gin

let global_avg_pool ?arena t =
  let s = Tensor.shape t in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let out = Arena.uninit arena [| n; c |] in
  let td = Tensor.data t and od = Tensor.data out in
  let inv = 1.0 /. float_of_int (h * w) in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * h * w in
      let acc = ref 0.0 in
      for i = 0 to (h * w) - 1 do
        acc := !acc +. Array.unsafe_get td (base + i)
      done;
      od.((ni * c) + ci) <- !acc *. inv
    done
  done;
  out

let global_avg_pool_backward ?arena ~input ~gout () =
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let gin = Arena.uninit arena s in
  let gd = Tensor.data gin and god = Tensor.data gout in
  let inv = 1.0 /. float_of_int (h * w) in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let g = god.((ni * c) + ci) *. inv in
      let base = ((ni * c) + ci) * h * w in
      for i = 0 to (h * w) - 1 do
        gd.(base + i) <- g
      done
    done
  done;
  gin

let linear ?arena ~input ~weight ~bias () =
  let is = Tensor.shape input and ws = Tensor.shape weight in
  let n = is.(0) and f = is.(1) in
  let out_dim = ws.(0) in
  assert (ws.(1) = f);
  let out = Arena.uninit arena [| n; out_dim |] in
  let id = Tensor.data input
  and wd = Tensor.data weight
  and bd = Tensor.data bias
  and od = Tensor.data out in
  for ni = 0 to n - 1 do
    let ibase = ni * f in
    for oi = 0 to out_dim - 1 do
      let wbase = oi * f in
      let acc = ref bd.(oi) in
      for fi = 0 to f - 1 do
        acc := !acc +. (Array.unsafe_get id (ibase + fi) *. Array.unsafe_get wd (wbase + fi))
      done;
      od.((ni * out_dim) + oi) <- !acc
    done
  done;
  out

let linear_backward ?arena ~input ~weight ~gout () =
  let is = Tensor.shape input and ws = Tensor.shape weight in
  let n = is.(0) and f = is.(1) in
  let out_dim = ws.(0) in
  let ginput = Arena.zeros arena is in
  let gweight = Arena.zeros arena ws in
  let gbias = Arena.zeros arena [| out_dim |] in
  let id = Tensor.data input
  and wd = Tensor.data weight
  and god = Tensor.data gout
  and gid = Tensor.data ginput
  and gwd = Tensor.data gweight
  and gbd = Tensor.data gbias in
  for ni = 0 to n - 1 do
    let ibase = ni * f in
    for oi = 0 to out_dim - 1 do
      let g = god.((ni * out_dim) + oi) in
      gbd.(oi) <- gbd.(oi) +. g;
      let wbase = oi * f in
      for fi = 0 to f - 1 do
        Array.unsafe_set gid (ibase + fi)
          (Array.unsafe_get gid (ibase + fi) +. (g *. Array.unsafe_get wd (wbase + fi)));
        Array.unsafe_set gwd (wbase + fi)
          (Array.unsafe_get gwd (wbase + fi) +. (g *. Array.unsafe_get id (ibase + fi)))
      done
    done
  done;
  (ginput, gweight, gbias)

type bn_cache = {
  bn_input : Tensor.t;
  bn_gamma : Tensor.t;
  bn_inv_std : float array;
  bn_xhat : Tensor.t;
}

let batch_norm ?arena ~input ~gamma ~beta ~eps () =
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and plane = s.(2) * s.(3) in
  let mean = Array.make c 0.0 and var = Array.make c 0.0 in
  let id = Tensor.data input and gd = Tensor.data gamma and bd = Tensor.data beta in
  assert (hold (n * c * plane) [ id ] && hold c [ mean; var; gd; bd ]);
  c_bn_stats id mean var n c plane;
  let inv_std = Array.map (fun v -> 1.0 /. sqrt (v +. eps)) var in
  let xhat = Arena.uninit arena s in
  let out = Arena.uninit arena s in
  let xd = Tensor.data xhat and od = Tensor.data out in
  assert (hold (n * c * plane) [ xd; od ]);
  c_bn_normalize id mean inv_std gd bd xd od n c plane;
  (out, { bn_input = input; bn_gamma = gamma; bn_inv_std = inv_std; bn_xhat = xhat })

let batch_norm_backward ?arena ~gout ~cache () =
  let s = Tensor.shape cache.bn_input in
  let n = s.(0) and c = s.(1) and plane = s.(2) * s.(3) in
  let ginput = Arena.uninit arena s in
  let ggamma = Arena.uninit arena [| c |] in
  let gbeta = Arena.uninit arena [| c |] in
  let god = Tensor.data gout
  and xd = Tensor.data cache.bn_xhat
  and gid = Tensor.data ginput
  and ggd = Tensor.data ggamma
  and gbd = Tensor.data gbeta
  and gd = Tensor.data cache.bn_gamma in
  assert (hold (n * c * plane) [ god; xd; gid ] && hold c [ gd; cache.bn_inv_std; ggd; gbd ]);
  c_bn_backward god xd gd cache.bn_inv_std gid ggd gbd n c plane;
  (ginput, ggamma, gbeta)

let concat_channels ?arena parts =
  match parts with
  | [] -> invalid_arg "concat_channels: empty"
  | first :: _ ->
      let s = Tensor.shape first in
      let n = s.(0) and h = s.(2) and w = s.(3) in
      let total_c = List.fold_left (fun acc t -> acc + (Tensor.shape t).(1)) 0 parts in
      let out = Arena.uninit arena [| n; total_c; h; w |] in
      let od = Tensor.data out in
      let plane = h * w in
      for ni = 0 to n - 1 do
        let coff = ref 0 in
        List.iter
          (fun t ->
            let c = (Tensor.shape t).(1) in
            let td = Tensor.data t in
            Array.blit td (ni * c * plane) od (((ni * total_c) + !coff) * plane) (c * plane);
            coff := !coff + c)
          parts
      done;
      out

let split_channels_backward ?arena ~gout ~parts () =
  let s = Tensor.shape gout in
  let n = s.(0) and total_c = s.(1) and h = s.(2) and w = s.(3) in
  assert (List.fold_left ( + ) 0 parts = total_c);
  let plane = h * w in
  let god = Tensor.data gout in
  let offsets =
    List.fold_left (fun (acc, off) c -> ((off, c) :: acc, off + c)) ([], 0) parts
    |> fst |> List.rev
  in
  List.map
    (fun (off, c) ->
      let g = Arena.uninit arena [| n; c; h; w |] in
      let gd = Tensor.data g in
      for ni = 0 to n - 1 do
        Array.blit god (((ni * total_c) + off) * plane) gd (ni * c * plane) (c * plane)
      done;
      g)
    offsets

let softmax_cross_entropy ~logits ~labels =
  let s = Tensor.shape logits in
  let n = s.(0) and k = s.(1) in
  assert (Array.length labels = n);
  let ld = Tensor.data logits in
  let grad = Tensor.zeros s in
  let gd = Tensor.data grad in
  let loss = ref 0.0 in
  for ni = 0 to n - 1 do
    let base = ni * k in
    let mx = ref ld.(base) in
    for ki = 1 to k - 1 do
      if ld.(base + ki) > !mx then mx := ld.(base + ki)
    done;
    let denom = ref 0.0 in
    for ki = 0 to k - 1 do
      denom := !denom +. exp (ld.(base + ki) -. !mx)
    done;
    let log_denom = log !denom in
    let label = labels.(ni) in
    loss := !loss -. (ld.(base + label) -. !mx -. log_denom);
    for ki = 0 to k - 1 do
      let p = exp (ld.(base + ki) -. !mx -. log_denom) in
      gd.(base + ki) <- (p -. (if ki = label then 1.0 else 0.0)) /. float_of_int n
    done
  done;
  (!loss /. float_of_int n, grad)

let accuracy ~logits ~labels =
  let s = Tensor.shape logits in
  let n = s.(0) and k = s.(1) in
  let ld = Tensor.data logits in
  let correct = ref 0 in
  for ni = 0 to n - 1 do
    let base = ni * k in
    let best = ref 0 in
    for ki = 1 to k - 1 do
      if ld.(base + ki) > ld.(base + !best) then best := ki
    done;
    if !best = labels.(ni) then incr correct
  done;
  float_of_int !correct /. float_of_int n

let pad_channels t c =
  let s = Tensor.shape t in
  let n = s.(0) and c0 = s.(1) and h = s.(2) and w = s.(3) in
  assert (c >= c0);
  if c = c0 then t
  else begin
    let out = Tensor.zeros [| n; c; h; w |] in
    let td = Tensor.data t and od = Tensor.data out in
    let plane = h * w in
    for ni = 0 to n - 1 do
      Array.blit td (ni * c0 * plane) od (ni * c * plane) (c0 * plane)
    done;
    out
  end
