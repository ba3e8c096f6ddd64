(* Tensor and kernel tests: reference semantics plus finite-difference
   gradient checks for every backward kernel. *)

let rng () = Rng.create 7

let check_close ?(tol = 1e-4) msg a b =
  if Float.abs (a -. b) > tol then
    Alcotest.failf "%s: %.8f vs %.8f (tol %.2g)" msg a b tol

let t_create_get_set () =
  let t = Tensor.zeros [| 2; 3; 4 |] in
  Alcotest.(check int) "numel" 24 (Tensor.numel t);
  Tensor.set t [| 1; 2; 3 |] 5.0;
  check_close "get" 5.0 (Tensor.get t [| 1; 2; 3 |]);
  check_close "flat" 5.0 (Tensor.get1 t 23)

let t_init_index_order () =
  let t = Tensor.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 10) + idx.(1))) in
  check_close "row major" 12.0 (Tensor.get1 t 5);
  check_close "first" 0.0 (Tensor.get1 t 0)

let t_map_arith () =
  let a = Tensor.of_array [| 3 |] [| 1.0; 2.0; 3.0 |] in
  let b = Tensor.of_array [| 3 |] [| 10.0; 20.0; 30.0 |] in
  check_close "add" 22.0 (Tensor.get1 (Tensor.add a b) 1);
  check_close "sub" 9.0 (Tensor.get1 (Tensor.sub b a) 0);
  check_close "mul" 90.0 (Tensor.get1 (Tensor.mul a b) 2);
  check_close "scale" 6.0 (Tensor.get1 (Tensor.scale 2.0 a) 2);
  check_close "sum" 6.0 (Tensor.sum a);
  check_close "mean" 2.0 (Tensor.mean a);
  check_close "sq_norm" 14.0 (Tensor.sq_norm a)

let t_reshape_shares () =
  let a = Tensor.zeros [| 2; 2 |] in
  let b = Tensor.reshape a [| 4 |] in
  Tensor.set1 b 3 9.0;
  check_close "shared" 9.0 (Tensor.get a [| 1; 1 |])

let t_axpy () =
  let x = Tensor.of_array [| 2 |] [| 1.0; 2.0 |] in
  let y = Tensor.of_array [| 2 |] [| 10.0; 10.0 |] in
  Tensor.axpy_ ~alpha:0.5 ~x ~y;
  check_close "axpy" 11.0 (Tensor.get1 y 1)

let t_argmax () =
  let a = Tensor.of_array [| 4 |] [| 1.0; 7.0; 3.0; 7.0 |] in
  Alcotest.(check int) "argmax first" 1 (Tensor.argmax_flat a)

let t_rand_deterministic () =
  let a = Tensor.rand_normal (rng ()) [| 8 |] ~mean:0.0 ~std:1.0 in
  let b = Tensor.rand_normal (rng ()) [| 8 |] ~mean:0.0 ~std:1.0 in
  Alcotest.(check bool) "same seed, same draw" true (Tensor.approx_equal a b)

(* Bitwise equality, NaN payloads included. *)
let same_bits a b =
  Tensor.same_shape a b
  &&
  let ad = Tensor.data a and bd = Tensor.data b in
  let ok = ref true in
  Array.iteri
    (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float bd.(i) then ok := false)
    ad;
  !ok

(* Output index read by input index [i] through tap [t], or -1. *)
let tap_of ~i ~t ~stride ~pad ~dilation ~out =
  let d = i + pad - (t * dilation) in
  if d >= 0 && d mod stride = 0 && d / stride < out then d / stride else -1

(* Reference convolution written as directly as possible from eq. (1),
   adding taps from +0.0 in (input channel, kh, kw) order.  Like the
   kernels' direct loop it skips zero weights, so it also fixes where a
   non-finite input may leave a NaN. *)
let naive_conv ?(dilation = 1) ~input ~weight ~stride ~pad ~groups () =
  let is = Tensor.shape input and ws = Tensor.shape weight in
  let n = is.(0) and h = is.(2) and w = is.(3) in
  let co = ws.(0) and cig = ws.(1) and kh = ws.(2) and kw = ws.(3) in
  let oh = Ops.conv_out_dim h ~k:kh ~stride ~pad ~dilation in
  let ow = Ops.conv_out_dim w ~k:kw ~stride ~pad ~dilation in
  let cog = co / groups in
  Tensor.init [| n; co; oh; ow |] (fun idx ->
      let ni = idx.(0) and coi = idx.(1) and ohi = idx.(2) and owi = idx.(3) in
      let g = coi / cog in
      let acc = ref 0.0 in
      for cg = 0 to cig - 1 do
        let cii = (g * cig) + cg in
        for khi = 0 to kh - 1 do
          for kwi = 0 to kw - 1 do
            let hi = (ohi * stride) + (khi * dilation) - pad in
            let wi = (owi * stride) + (kwi * dilation) - pad in
            let wv = Tensor.get weight [| coi; cg; khi; kwi |] in
            if hi >= 0 && hi < h && wi >= 0 && wi < w && wv <> 0.0 then
              acc := !acc +. (Tensor.get input [| ni; cii; hi; wi |] *. wv)
          done
        done
      done;
      !acc)

(* Reference input gradient: every input adds [gout * w] from +0.0 over
   the taps that read it, in (output channel, kh, kw) order. *)
let naive_conv_backward_input ?(dilation = 1) ~input ~weight ~gout ~stride ~pad ~groups () =
  let ws = Tensor.shape weight and os = Tensor.shape gout in
  let co = ws.(0) and cig = ws.(1) and kh = ws.(2) and kw = ws.(3) in
  let oh = os.(2) and ow = os.(3) in
  let cog = co / groups in
  Tensor.init (Tensor.shape input) (fun idx ->
      let ni = idx.(0) and cii = idx.(1) and hi = idx.(2) and wi = idx.(3) in
      let g = cii / cig in
      let acc = ref 0.0 in
      for cg = 0 to cog - 1 do
        let coi = (g * cog) + cg in
        for khi = 0 to kh - 1 do
          for kwi = 0 to kw - 1 do
            let ohi = tap_of ~i:hi ~t:khi ~stride ~pad ~dilation ~out:oh in
            let owi = tap_of ~i:wi ~t:kwi ~stride ~pad ~dilation ~out:ow in
            if ohi >= 0 && owi >= 0 then
              acc :=
                !acc
                +. (Tensor.get gout [| ni; coi; ohi; owi |]
                   *. Tensor.get weight [| coi; cii - (g * cig); khi; kwi |])
          done
        done
      done;
      !acc)

(* Reference weight gradient: per image, [gout * input] summed from +0.0
   over the output plane in row-major order; the per-image sums are added
   in batch order. *)
let naive_conv_backward_weight ?(dilation = 1) ~input ~weight ~gout ~stride ~pad ~groups () =
  let is = Tensor.shape input and os = Tensor.shape gout in
  let n = is.(0) and h = is.(2) and w = is.(3) in
  let co = os.(1) and oh = os.(2) and ow = os.(3) in
  let cig = (Tensor.shape weight).(1) in
  let cog = co / groups in
  Tensor.init (Tensor.shape weight) (fun idx ->
      let coi = idx.(0) and cg = idx.(1) and khi = idx.(2) and kwi = idx.(3) in
      let cii = (coi / cog * cig) + cg in
      let total = ref 0.0 in
      for ni = 0 to n - 1 do
        let acc = ref 0.0 in
        for ohi = 0 to oh - 1 do
          for owi = 0 to ow - 1 do
            let hi = (ohi * stride) + (khi * dilation) - pad in
            let wi = (owi * stride) + (kwi * dilation) - pad in
            if hi >= 0 && hi < h && wi >= 0 && wi < w then
              acc :=
                !acc
                +. (Tensor.get gout [| ni; coi; ohi; owi |] *. Tensor.get input [| ni; cii; hi; wi |])
          done
        done;
        total := !total +. !acc
      done;
      !total)

(* Reference ReLU and batch-norm kernels: the OCaml loops the C kernels
   replaced.  [Ops] must match them bit for bit. *)
let naive_relu t =
  let out = Tensor.zeros (Tensor.shape t) in
  let td = Tensor.data t and od = Tensor.data out in
  for i = 0 to Array.length td - 1 do
    let x = td.(i) in
    od.(i) <- (if x > 0.0 then x else 0.0)
  done;
  out

let naive_relu_backward ~input ~gout =
  let gin = Tensor.zeros (Tensor.shape input) in
  let id = Tensor.data input and god = Tensor.data gout and gd = Tensor.data gin in
  for i = 0 to Array.length id - 1 do
    gd.(i) <- (if id.(i) > 0.0 then god.(i) else 0.0)
  done;
  gin

(* Each channel's mean, then its variance, is +0.0 plus its terms in
   (image, plane index) order, divided by the count.  Returns the output,
   [xhat] and the per-channel [inv_std] the backward reference needs. *)
let naive_batch_norm ~input ~gamma ~beta ~eps =
  let s = Tensor.shape input in
  let n = s.(0) and c = s.(1) and plane = s.(2) * s.(3) in
  let count = float_of_int (n * plane) in
  let id = Tensor.data input in
  let channel_sum ci term =
    let acc = ref 0.0 in
    for ni = 0 to n - 1 do
      let base = ((ni * c) + ci) * plane in
      for i = 0 to plane - 1 do
        acc := !acc +. term id.(base + i)
      done
    done;
    !acc /. count
  in
  let mean = Array.init c (fun ci -> channel_sum ci Fun.id) in
  let var =
    Array.init c (fun ci ->
        channel_sum ci (fun x ->
            let d = x -. mean.(ci) in
            d *. d))
  in
  let inv_std = Array.map (fun v -> 1.0 /. sqrt (v +. eps)) var in
  let xhat = Tensor.zeros s and out = Tensor.zeros s in
  let xd = Tensor.data xhat and od = Tensor.data out in
  let gd = Tensor.data gamma and bd = Tensor.data beta in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * plane in
      for i = 0 to plane - 1 do
        let xh = (id.(base + i) -. mean.(ci)) *. inv_std.(ci) in
        xd.(base + i) <- xh;
        od.(base + i) <- (gd.(ci) *. xh) +. bd.(ci)
      done
    done
  done;
  (out, xhat, inv_std)

(* Per channel, [sum_g] and [sum_gx] are +0.0 plus [gout] and [gout *
   xhat] in (image, plane index) order; they are the beta and gamma
   gradients, and the input gradient is
   [gamma * inv_std / count * (count * g - sum_g - xhat * sum_gx)]. *)
let naive_batch_norm_backward ~gout ~xhat ~gamma ~inv_std =
  let s = Tensor.shape gout in
  let n = s.(0) and c = s.(1) and plane = s.(2) * s.(3) in
  let count = float_of_int (n * plane) in
  let ginput = Tensor.zeros s and ggamma = Tensor.zeros [| c |] and gbeta = Tensor.zeros [| c |] in
  let god = Tensor.data gout and xd = Tensor.data xhat and gid = Tensor.data ginput in
  for ci = 0 to c - 1 do
    let sum_g = ref 0.0 and sum_gx = ref 0.0 in
    for ni = 0 to n - 1 do
      let base = ((ni * c) + ci) * plane in
      for i = 0 to plane - 1 do
        let g = god.(base + i) in
        sum_g := !sum_g +. g;
        sum_gx := !sum_gx +. (g *. xd.(base + i))
      done
    done;
    Tensor.set1 ggamma ci !sum_gx;
    Tensor.set1 gbeta ci !sum_g;
    let coeff = Tensor.get1 gamma ci *. inv_std.(ci) /. count in
    for ni = 0 to n - 1 do
      let base = ((ni * c) + ci) * plane in
      for i = 0 to plane - 1 do
        gid.(base + i) <- coeff *. ((count *. god.(base + i)) -. !sum_g -. (xd.(base + i) *. !sum_gx))
      done
    done
  done;
  (ginput, ggamma, gbeta)

(* Reference nearest upsampling: output cell (i, j) copies input cell
   (i / f, j / f); backward, each input cell is +0.0 plus its f x f
   output gradients in (dh, dw) order, the running sum on the left. *)
let naive_upsample t f =
  let s = Tensor.shape t in
  Tensor.init [| s.(0); s.(1); s.(2) * f; s.(3) * f |] (fun idx ->
      Tensor.get t [| idx.(0); idx.(1); idx.(2) / f; idx.(3) / f |])

let naive_upsample_backward ~input ~gout f =
  Tensor.init (Tensor.shape input) (fun idx ->
      let acc = ref 0.0 in
      for dh = 0 to f - 1 do
        for dw = 0 to f - 1 do
          let g = Tensor.get gout [| idx.(0); idx.(1); (idx.(2) * f) + dh; (idx.(3) * f) + dw |] in
          acc := !acc +. g
        done
      done;
      !acc)

let conv_case ~n ~ci ~co ~hw ~k ~stride ~pad ~groups () =
  let r = rng () in
  let input = Tensor.rand_normal r [| n; ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| co; ci / groups; k; k |] ~mean:0.0 ~std:1.0 in
  let fast = Ops.conv2d ~input ~weight ~bias:None { Ops.stride; pad; groups; dilation = 1 } in
  let slow = naive_conv ~input ~weight ~stride ~pad ~groups () in
  Alcotest.(check bool)
    (Printf.sprintf "conv n%d ci%d co%d k%d s%d p%d g%d" n ci co k stride pad groups)
    true (same_bits fast slow)

let t_conv_bias () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 1; 2; 4; 4 |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| 3; 2; 1; 1 |] ~mean:0.0 ~std:1.0 in
  let bias = Tensor.of_array [| 3 |] [| 1.0; 2.0; 3.0 |] in
  let with_bias =
    Ops.conv2d ~input ~weight ~bias:(Some bias) { Ops.stride = 1; pad = 0; groups = 1; dilation = 1 }
  in
  let without =
    Ops.conv2d ~input ~weight ~bias:None { Ops.stride = 1; pad = 0; groups = 1; dilation = 1 }
  in
  check_close "bias added" 2.0
    (Tensor.get with_bias [| 0; 1; 0; 0 |] -. Tensor.get without [| 0; 1; 0; 0 |])

(* Central differences of a scalar loss through a kernel at [samples]
   random cells of [param]: the first cell where [grad] disagrees, if any. *)
let fd_mismatch ?(seed = 123) ~loss ~param ~grad ~samples ~tol () =
  let eps = 1e-4 in
  let r = Rng.create seed in
  let rec go k =
    if k = 0 then None
    else begin
      let i = Rng.int r (Tensor.numel param) in
      let orig = Tensor.get1 param i in
      Tensor.set1 param i (orig +. eps);
      let up = loss () in
      Tensor.set1 param i (orig -. eps);
      let down = loss () in
      Tensor.set1 param i orig;
      let expected = (up -. down) /. (2.0 *. eps) in
      let got = Tensor.get1 grad i in
      if Float.abs (expected -. got) > tol *. (1.0 +. Float.abs expected) then
        Some (Printf.sprintf "fd %.6f vs grad %.6f at %d" expected got i)
      else go (k - 1)
    end
  in
  go samples

(* Generic finite-difference check of a scalar loss through a kernel. *)
let finite_diff ~loss ~param ~grad ~samples ~tol name =
  Option.iter (Alcotest.failf "%s: %s" name) (fd_mismatch ~loss ~param ~grad ~samples ~tol ())

let t_conv_backward () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 2; 4; 5; 5 |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| 6; 2; 3; 3 |] ~mean:0.0 ~std:0.5 in
  let params = { Ops.stride = 2; pad = 1; groups = 2; dilation = 1 } in
  (* Loss = weighted sum of outputs with fixed coefficients. *)
  let coeffs = Tensor.rand_normal r [| 2; 6; 3; 3 |] ~mean:0.0 ~std:1.0 in
  let loss () = Tensor.sum (Tensor.mul (Ops.conv2d ~input ~weight ~bias:None params) coeffs) in
  let gin, gw, gb = Ops.conv2d_backward ~input ~weight ~gout:coeffs params in
  finite_diff ~loss ~param:input ~grad:gin ~samples:20 ~tol:1e-2 "conv dinput";
  finite_diff ~loss ~param:weight ~grad:gw ~samples:20 ~tol:1e-2 "conv dweight";
  (* The bias gradient is the per-channel sum of coefficients. *)
  let expected_b0 = ref 0.0 in
  for ni = 0 to 1 do
    for i = 0 to 8 do
      expected_b0 := !expected_b0 +. Tensor.get1 coeffs ((ni * 54) + i)
    done
  done;
  check_close "conv dbias" !expected_b0 (Tensor.get1 gb 0)

let t_conv_backward_input () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 2; 4; 7; 7 |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| 6; 2; 3; 3 |] ~mean:0.0 ~std:0.5 in
  let params = { Ops.stride = 2; pad = 2; groups = 2; dilation = 2 } in
  let out = Ops.conv2d ~input ~weight ~bias:None params in
  let coeffs = Tensor.rand_normal r (Tensor.shape out) ~mean:0.0 ~std:1.0 in
  let loss () = Tensor.sum (Tensor.mul (Ops.conv2d ~input ~weight ~bias:None params) coeffs) in
  let gin = Ops.conv2d_backward_input ~input ~weight ~gout:coeffs params in
  finite_diff ~loss ~param:input ~grad:gin ~samples:20 ~tol:1e-2 "conv dinput (g2 s2 d2)"

(* A non-finite operand takes the direct loops: an [inf] input read only
   through zero weights must leave output channel 0 finite (the im2col
   path would add [inf * 0 = NaN]), while channel 1 reads it through
   nonzero weights.  An [inf] weight likewise keeps the gather form's
   padded zeros out of the input gradient. *)
let t_conv_non_finite () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 1; 2; 4; 4 |] ~mean:0.0 ~std:1.0 in
  Tensor.set input [| 0; 1; 1; 2 |] infinity;
  let weight = Tensor.rand_normal r [| 2; 2; 3; 3 |] ~mean:0.0 ~std:1.0 in
  for khi = 0 to 2 do
    for kwi = 0 to 2 do
      Tensor.set weight [| 0; 1; khi; kwi |] 0.0
    done
  done;
  let p = { Ops.stride = 1; pad = 1; groups = 1; dilation = 1 } in
  let out = Ops.conv2d ~input ~weight ~bias:None p in
  Alcotest.(check bool) "forward matches the direct loop" true
    (same_bits out (naive_conv ~input ~weight ~stride:1 ~pad:1 ~groups:1 ()));
  Alcotest.(check bool) "channel 0 stays finite" true
    (Array.for_all Float.is_finite (Array.sub (Tensor.data out) 0 16));
  Alcotest.(check bool) "channel 1 sees the inf" false
    (Array.for_all Float.is_finite (Array.sub (Tensor.data out) 16 16));
  let weight = Tensor.rand_normal r [| 2; 2; 3; 3 |] ~mean:0.0 ~std:1.0 in
  Tensor.set weight [| 1; 0; 0; 0 |] infinity;
  let gout = Tensor.rand_normal r [| 1; 2; 4; 4 |] ~mean:0.0 ~std:1.0 in
  let gin = Ops.conv2d_backward_input ~input ~weight ~gout p in
  let gin', _, _ = Ops.conv2d_backward ~input ~weight ~gout p in
  let expected = naive_conv_backward_input ~input ~weight ~gout ~stride:1 ~pad:1 ~groups:1 () in
  Alcotest.(check bool) "input gradient matches the direct loop" true (same_bits gin expected);
  Alcotest.(check bool) "both backward kernels agree" true (same_bits gin' expected)

(* The depthwise twin: three input channels with a channel multiplier of
   2, so input channel 1 feeds output channels 2 and 3.  An [inf] in it,
   read only through channel 2's zero weights, must leave channel 2 finite
   (the padded stencil would add [inf * 0 = NaN]) while channel 3 sees
   it.  An [inf] weight at tap (0, 0) of channel 4 takes the direct input
   gradient: input channel 2's bottom-right cell reads that tap from
   outside the output, so it must stay finite where the stencil's padded
   zero would make it NaN. *)
let t_depthwise_non_finite () =
  let r = rng () in
  let normal shape = Tensor.rand_normal r shape ~mean:0.0 ~std:1.0 in
  let input = normal [| 1; 3; 4; 5 |] in
  Tensor.set input [| 0; 1; 1; 2 |] infinity;
  let weight = normal [| 6; 1; 3; 3 |] in
  for t = 0 to 8 do
    Tensor.set weight [| 2; 0; t / 3; t mod 3 |] 0.0
  done;
  let p = { Ops.stride = 1; pad = 1; groups = 3; dilation = 1 } in
  let out = Ops.conv2d ~input ~weight ~bias:None p in
  let channel c = Array.sub (Tensor.data out) (c * 20) 20 in
  Alcotest.(check bool) "forward matches the direct loop" true
    (same_bits out (naive_conv ~input ~weight ~stride:1 ~pad:1 ~groups:3 ()));
  Alcotest.(check bool) "channel 2 stays finite" true (Array.for_all Float.is_finite (channel 2));
  Alcotest.(check bool) "channel 3 sees the inf" false (Array.for_all Float.is_finite (channel 3));
  let weight = normal [| 6; 1; 3; 3 |] in
  Tensor.set weight [| 4; 0; 0; 0 |] infinity;
  let gout = normal [| 1; 6; 4; 5 |] in
  let gin = Ops.conv2d_backward_input ~input ~weight ~gout p in
  let gin', _, _ = Ops.conv2d_backward ~input ~weight ~gout p in
  let expected = naive_conv_backward_input ~input ~weight ~gout ~stride:1 ~pad:1 ~groups:3 () in
  Alcotest.(check bool) "input gradient matches the direct loop" true (same_bits gin expected);
  Alcotest.(check bool) "both backward kernels agree" true (same_bits gin' expected);
  Alcotest.(check bool) "a cell off the inf tap stays finite" true
    (Float.is_finite (Tensor.get gin [| 0; 2; 3; 4 |]))

(* The 3x3 conv shapes of the resnet18 and mobilenet_small search models
   at the probe's 16x16 input (batch 16 there, 2 here), plus the
   depthwise replacements a search puts at resnet18's stages (down to a
   2x2 plane) and the channel-multiplier 1x1 depthwise convs that
   grouping builds in mobilenet_small (16 -> 32 and 8 -> 32 at groups =
   ci, so two or four output channels per input): input channels x
   plane, output channels, stride, groups, kernel.  They reach [len] 576
   and the 2x2 and 4x4 planes where [dot_rows] runs its row and column
   tails, which the random geometries above do not. *)
let workload_shapes =
  [ (3, 16, 8, 1, 1, 3); (8, 16, 8, 1, 1, 3); (8, 16, 16, 2, 1, 3); (16, 8, 16, 1, 1, 3);
    (16, 8, 32, 2, 1, 3); (32, 4, 32, 1, 1, 3); (32, 4, 64, 2, 1, 3); (64, 2, 64, 1, 1, 3);
    (32, 16, 32, 1, 32, 3); (32, 16, 32, 2, 32, 3); (64, 8, 64, 1, 64, 3);
    (64, 8, 64, 2, 64, 3); (128, 4, 128, 1, 128, 3); (16, 8, 16, 1, 16, 3);
    (32, 4, 32, 1, 32, 3); (64, 2, 64, 1, 64, 3); (16, 8, 32, 1, 16, 1); (8, 16, 32, 1, 8, 1) ]

let t_conv_workload_shapes () =
  List.iter
    (fun (ci, hw, co, stride, groups, k) ->
      let name =
        Printf.sprintf "2x%dx%dx%d w%dx%dx%dx%d s%d g%d" ci hw hw co (ci / groups) k k stride
          groups
      in
      let r = Rng.create (ci + hw + co + stride + groups) in
      let normal shape = Tensor.rand_normal r shape ~mean:0.0 ~std:1.0 in
      let input = normal [| 2; ci; hw; hw |] and weight = normal [| co; ci / groups; k; k |] in
      let pad = k / 2 in
      let p = { Ops.stride; pad; groups; dilation = 1 } in
      let out = Ops.conv2d ~input ~weight ~bias:None p in
      let gout = normal (Tensor.shape out) in
      let gin = Ops.conv2d_backward_input ~input ~weight ~gout p in
      let gin', gw, _ = Ops.conv2d_backward ~input ~weight ~gout p in
      let check what got want =
        Alcotest.(check bool) (name ^ " " ^ what) true (same_bits got want)
      in
      check "forward" out (naive_conv ~input ~weight ~stride ~pad ~groups ());
      let want = naive_conv_backward_input ~input ~weight ~gout ~stride ~pad ~groups () in
      check "input gradient" gin want;
      check "input gradient of the full backward" gin' want;
      check "weight gradient" gw
        (naive_conv_backward_weight ~input ~weight ~gout ~stride ~pad ~groups ()))
    workload_shapes

let t_linear_backward () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 3; 5 |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| 4; 5 |] ~mean:0.0 ~std:1.0 in
  let bias = Tensor.rand_normal r [| 4 |] ~mean:0.0 ~std:1.0 in
  let coeffs = Tensor.rand_normal r [| 3; 4 |] ~mean:0.0 ~std:1.0 in
  let loss () = Tensor.sum (Tensor.mul (Ops.linear ~input ~weight ~bias ()) coeffs) in
  let gin, gw, gb = Ops.linear_backward ~input ~weight ~gout:coeffs () in
  finite_diff ~loss ~param:input ~grad:gin ~samples:15 ~tol:1e-3 "linear dinput";
  finite_diff ~loss ~param:weight ~grad:gw ~samples:15 ~tol:1e-3 "linear dweight";
  ignore gb

let t_bn_forward_stats () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 4; 3; 6; 6 |] ~mean:5.0 ~std:2.0 in
  let gamma = Tensor.ones [| 3 |] and beta = Tensor.zeros [| 3 |] in
  let out, _ = Ops.batch_norm ~input ~gamma ~beta ~eps:1e-5 () in
  (* Per-channel mean ~0 and variance ~1. *)
  for c = 0 to 2 do
    let acc = ref 0.0 and acc2 = ref 0.0 and count = ref 0 in
    Tensor.iteri_flat
      (fun i v ->
        if i / 36 mod 3 = c then begin
          acc := !acc +. v;
          acc2 := !acc2 +. (v *. v);
          incr count
        end)
      out;
    let m = !acc /. float_of_int !count in
    let var = (!acc2 /. float_of_int !count) -. (m *. m) in
    check_close ~tol:1e-3 "bn mean" 0.0 m;
    check_close ~tol:1e-2 "bn var" 1.0 var
  done

let t_bn_backward () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 2; 2; 3; 3 |] ~mean:1.0 ~std:1.5 in
  let gamma = Tensor.rand_normal r [| 2 |] ~mean:1.0 ~std:0.2 in
  let beta = Tensor.rand_normal r [| 2 |] ~mean:0.0 ~std:0.2 in
  let coeffs = Tensor.rand_normal r [| 2; 2; 3; 3 |] ~mean:0.0 ~std:1.0 in
  let loss () =
    let out, _ = Ops.batch_norm ~input ~gamma ~beta ~eps:1e-5 () in
    Tensor.sum (Tensor.mul out coeffs)
  in
  let _, cache = Ops.batch_norm ~input ~gamma ~beta ~eps:1e-5 () in
  let gin, ggamma, gbeta = Ops.batch_norm_backward ~gout:coeffs ~cache () in
  finite_diff ~loss ~param:input ~grad:gin ~samples:12 ~tol:1e-2 "bn dinput";
  finite_diff ~loss ~param:gamma ~grad:ggamma ~samples:2 ~tol:1e-2 "bn dgamma";
  finite_diff ~loss ~param:beta ~grad:gbeta ~samples:2 ~tol:1e-2 "bn dbeta"

(* Values where a select or a sum could go wrong: signed zeros,
   infinities, NaNs with different signs and payloads (one signaling),
   subnormals and the extremes of the normal range. *)
let specials =
  [| 0.0; -0.0; infinity; neg_infinity; Float.nan; -.Float.nan;
     Int64.float_of_bits 0x7FF0_0000_0000_0123L; Int64.float_of_bits 0xFFF8_0000_0000_0042L;
     4.9e-324; -4.9e-324; 2.2e-308; -1e-310; Float.max_float; -.Float.min_float; 1.0; -1.0 |]

(* A normal tensor of [shape], with [specials] written over every
   [every]-th cell from [from] (none when [every = 0]). *)
let with_specials r shape ~every ~from =
  let t = Tensor.rand_normal r shape ~mean:0.0 ~std:1.0 in
  if every > 0 then
    Array.iteri
      (fun i _ ->
        if i >= from && (i - from) mod every = 0 then
          Tensor.set1 t i specials.(((i - from) / every) mod Array.length specials))
      (Tensor.data t);
  t

(* ReLU and batch norm against the references, at channel counts that
   cover the C kernels' 4-channel blocks and their tails, on 1x1, 2x2 and
   8x8 planes, with finite operands and with [specials] in the input, the
   output gradient or both. *)
let t_elementwise_bits () =
  let check what got want =
    if not (same_bits got want) then Alcotest.failf "%s: bits differ from the reference" what
  in
  List.iter
    (fun c ->
      List.iter
        (fun hw ->
          List.iter
            (fun (x_every, g_every, special_params) ->
              let shape = [| 2; c; hw; hw |] in
              let name =
                Printf.sprintf "2x%dx%dx%d specials in x every %d, in gout every %d%s" c hw hw
                  x_every g_every (if special_params then ", in gamma and beta" else "")
              in
              let r = Rng.create ((c * 100) + (hw * 10) + x_every + g_every) in
              let input = with_specials r shape ~every:x_every ~from:c in
              let gout = with_specials r shape ~every:g_every ~from:1 in
              let param k =
                if special_params then
                  Tensor.of_array [| c |]
                    (Array.init c (fun i -> specials.(((k * i) + c + hw) mod Array.length specials)))
                else Tensor.rand_normal r [| c |] ~mean:(float_of_int (k mod 2)) ~std:0.5
              in
              let gamma = param 3 and beta = param 4 in
              check (name ^ " relu") (Ops.relu input) (naive_relu input);
              check (name ^ " relu backward")
                (Ops.relu_backward ~input ~gout ())
                (naive_relu_backward ~input ~gout);
              let out, cache = Ops.batch_norm ~input ~gamma ~beta ~eps:1e-5 () in
              let want_out, xhat, inv_std = naive_batch_norm ~input ~gamma ~beta ~eps:1e-5 in
              check (name ^ " bn") out want_out;
              let gin, ggamma, gbeta = Ops.batch_norm_backward ~gout ~cache () in
              let want_gin, want_ggamma, want_gbeta =
                naive_batch_norm_backward ~gout ~xhat ~gamma ~inv_std
              in
              check (name ^ " bn input gradient") gin want_gin;
              check (name ^ " bn gamma gradient") ggamma want_ggamma;
              check (name ^ " bn beta gradient") gbeta want_gbeta)
            [ (0, 0, false); (7, 0, false); (0, 5, false); (3, 2, false); (3, 2, true); (3, 1, true) ])
        [ 1; 2; 8 ])
    [ 1; 3; 4; 5; 7 ];
  (* Every special value through ReLU, against every sign of input. *)
  let k = Array.length specials in
  let x = Tensor.of_array [| 1; 1; k; k |] (Array.init (k * k) (fun i -> specials.(i / k))) in
  let g = Tensor.of_array [| 1; 1; k; k |] (Array.init (k * k) (fun i -> specials.(i mod k))) in
  check "specials relu" (Ops.relu x) (naive_relu x);
  check "specials relu backward" (Ops.relu_backward ~input:x ~gout:g ())
    (naive_relu_backward ~input:x ~gout:g)

(* Upsampling against the references at factors 1-3, on 1x1, 2x3 and
   4x4 planes, with [specials] in the input and the output gradient, and
   with an output gradient of NaNs whose payloads and signs all differ
   (every third one signaling), so each input cell sums several NaNs. *)
let t_upsample_bits () =
  let check what got want =
    if not (same_bits got want) then Alcotest.failf "%s: bits differ from the reference" what
  in
  let nan_payloads shape =
    let n = Array.fold_left ( * ) 1 shape in
    Tensor.of_array shape
      (Array.init n (fun i ->
           let quiet = if i mod 3 = 0 then 0L else 0x0008_0000_0000_0000L in
           let sign = if i mod 2 = 0 then 0L else Int64.min_int in
           Int64.float_of_bits
             (Int64.logor (Int64.logor 0x7FF0_0000_0000_0000L sign)
                (Int64.logor quiet (Int64.of_int (i + 1))))))
  in
  List.iter
    (fun f ->
      List.iter
        (fun (h, w) ->
          List.iter
            (fun every ->
              let name = Printf.sprintf "f%d 2x3x%dx%d specials every %d" f h w every in
              let r = Rng.create ((f * 100) + (h * 10) + w + every) in
              let input = with_specials r [| 2; 3; h; w |] ~every ~from:1 in
              let gout = with_specials r [| 2; 3; h * f; w * f |] ~every ~from:0 in
              check (name ^ " forward") (Ops.upsample_nearest input f) (naive_upsample input f);
              check (name ^ " backward")
                (Ops.upsample_nearest_backward ~input ~gout f)
                (naive_upsample_backward ~input ~gout f))
            [ 0; 1; 3 ];
          let input = Tensor.zeros [| 1; 2; h; w |] in
          let gout = nan_payloads [| 1; 2; h * f; w * f |] in
          check
            (Printf.sprintf "f%d %dx%d NaN payloads backward" f h w)
            (Ops.upsample_nearest_backward ~input ~gout f)
            (naive_upsample_backward ~input ~gout f))
        [ (1, 1); (2, 3); (4, 4) ])
    [ 1; 2; 3 ]

let t_pool () =
  let input =
    Tensor.init [| 1; 1; 4; 4 |] (fun idx -> float_of_int ((idx.(2) * 4) + idx.(3)))
  in
  let mp, _ = Ops.max_pool2d input ~size:2 ~stride:2 ~pad:0 in
  check_close "maxpool" 5.0 (Tensor.get mp [| 0; 0; 0; 0 |]);
  check_close "maxpool br" 15.0 (Tensor.get mp [| 0; 0; 1; 1 |]);
  let ap = Ops.avg_pool2d input ~size:2 ~stride:2 ~pad:0 in
  check_close "avgpool" 2.5 (Tensor.get ap [| 0; 0; 0; 0 |])

let t_pool_backward () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 1; 2; 4; 4 |] ~mean:0.0 ~std:1.0 in
  let coeffs = Tensor.rand_normal r [| 1; 2; 2; 2 |] ~mean:0.0 ~std:1.0 in
  let loss_max () =
    let out, _ = Ops.max_pool2d input ~size:2 ~stride:2 ~pad:0 in
    Tensor.sum (Tensor.mul out coeffs)
  in
  let _, indices = Ops.max_pool2d input ~size:2 ~stride:2 ~pad:0 in
  let gin = Ops.max_pool2d_backward ~input ~gout:coeffs ~indices () in
  finite_diff ~loss:loss_max ~param:input ~grad:gin ~samples:12 ~tol:1e-2 "maxpool";
  let loss_avg () =
    Tensor.sum (Tensor.mul (Ops.avg_pool2d input ~size:2 ~stride:2 ~pad:0) coeffs)
  in
  let gin = Ops.avg_pool2d_backward ~input ~gout:coeffs ~size:2 ~stride:2 ~pad:0 () in
  finite_diff ~loss:loss_avg ~param:input ~grad:gin ~samples:12 ~tol:1e-2 "avgpool"

let t_gap () =
  let input =
    Tensor.init [| 1; 2; 2; 2 |] (fun idx -> float_of_int (idx.(0) + idx.(1) + idx.(2) + idx.(3)))
  in
  let out = Ops.global_avg_pool input in
  check_close "gap c0" 1.0 (Tensor.get out [| 0; 0 |]);
  check_close "gap c1" 2.0 (Tensor.get out [| 0; 1 |])

let t_upsample_roundtrip () =
  let r = rng () in
  let input = Tensor.rand_normal r [| 1; 2; 3; 3 |] ~mean:0.0 ~std:1.0 in
  let up = Ops.upsample_nearest input 2 in
  Alcotest.(check (array int)) "shape" [| 1; 2; 6; 6 |] (Tensor.shape up);
  check_close "copies" (Tensor.get input [| 0; 1; 2; 1 |]) (Tensor.get up [| 0; 1; 5; 3 |]);
  let coeffs = Tensor.rand_normal r [| 1; 2; 6; 6 |] ~mean:0.0 ~std:1.0 in
  let loss () = Tensor.sum (Tensor.mul (Ops.upsample_nearest input 2) coeffs) in
  let gin = Ops.upsample_nearest_backward ~input ~gout:coeffs 2 in
  finite_diff ~loss ~param:input ~grad:gin ~samples:10 ~tol:1e-2 "upsample"

let t_concat_split () =
  let r = rng () in
  let a = Tensor.rand_normal r [| 2; 3; 2; 2 |] ~mean:0.0 ~std:1.0 in
  let b = Tensor.rand_normal r [| 2; 1; 2; 2 |] ~mean:0.0 ~std:1.0 in
  let cat = Ops.concat_channels [ a; b ] in
  Alcotest.(check (array int)) "shape" [| 2; 4; 2; 2 |] (Tensor.shape cat);
  check_close "a part" (Tensor.get a [| 1; 2; 1; 0 |]) (Tensor.get cat [| 1; 2; 1; 0 |]);
  check_close "b part" (Tensor.get b [| 1; 0; 0; 1 |]) (Tensor.get cat [| 1; 3; 0; 1 |]);
  match Ops.split_channels_backward ~gout:cat ~parts:[ 3; 1 ] () with
  | [ ga; gb ] ->
      Alcotest.(check bool) "split a" true (Tensor.approx_equal ga a);
      Alcotest.(check bool) "split b" true (Tensor.approx_equal gb b)
  | _ -> Alcotest.fail "expected two parts"

let t_softmax_ce () =
  let logits = Tensor.of_array [| 2; 3 |] [| 2.0; 1.0; 0.0; 0.0; 0.0; 5.0 |] in
  let labels = [| 0; 2 |] in
  let loss, grad = Ops.softmax_cross_entropy ~logits ~labels in
  (* Both samples are confidently correct, so the loss is small. *)
  Alcotest.(check bool) "loss positive small" true (loss > 0.0 && loss < 0.6);
  (* Gradient rows sum to zero. *)
  let s0 = Tensor.get1 grad 0 +. Tensor.get1 grad 1 +. Tensor.get1 grad 2 in
  check_close ~tol:1e-6 "grad row sums to 0" 0.0 s0;
  check_close "accuracy" 1.0 (Ops.accuracy ~logits ~labels)

let t_softmax_grad_fd () =
  let r = rng () in
  let logits = Tensor.rand_normal r [| 3; 4 |] ~mean:0.0 ~std:1.0 in
  let labels = [| 1; 3; 0 |] in
  let loss () = fst (Ops.softmax_cross_entropy ~logits ~labels) in
  let _, grad = Ops.softmax_cross_entropy ~logits ~labels in
  finite_diff ~loss ~param:logits ~grad ~samples:12 ~tol:1e-3 "softmax-ce"

let t_pad_channels () =
  let r = rng () in
  let a = Tensor.rand_normal r [| 1; 2; 2; 2 |] ~mean:0.0 ~std:1.0 in
  let p = Ops.pad_channels a 5 in
  Alcotest.(check (array int)) "shape" [| 1; 5; 2; 2 |] (Tensor.shape p);
  check_close "copied" (Tensor.get a [| 0; 1; 1; 1 |]) (Tensor.get p [| 0; 1; 1; 1 |]);
  check_close "zero" 0.0 (Tensor.get p [| 0; 4; 0; 0 |])

(* Random convolution geometry.  [cog] of 1-9 reaches the kernels' 4-wide
   output-channel block and every remainder; planes of 1x1 and 2x2 put
   every output on the border path; strides up to 3 (and stride 2 at
   dilation 2) give input-gradient phases that meet no tap; [zeros] zeroes
   every [zeros]-th weight (0: none). *)
type conv_geom = {
  n : int;
  cig : int;
  cog : int;
  groups : int;
  hw : int;
  k : int;
  stride : int;
  dilation : int;
  same_pad : bool;
  zeros : int;
  seed : int;
}

let conv_geom_arb =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 2 and* cig = int_range 1 4 and* cog = int_range 1 9 in
    let* groups = int_range 1 3 and* hw = int_range 1 7 and* k = oneofl [ 1; 3 ] in
    let* stride = int_range 1 3 and* dilation = int_range 1 2 and* same_pad = bool in
    let* zeros = int_range 0 3 and* seed = int_bound 9999 in
    return { n; cig; cog; groups; hw; k; stride; dilation; same_pad; zeros; seed }
  in
  QCheck.make gen ~print:(fun g ->
      Printf.sprintf "n%d cig%d cog%d g%d hw%d k%d s%d d%d same%b zeros%d seed%d" g.n g.cig
        g.cog g.groups g.hw g.k g.stride g.dilation g.same_pad g.zeros g.seed)

let conv_operands g =
  let r = Rng.create g.seed in
  let ci = g.cig * g.groups and co = g.cog * g.groups in
  let input = Tensor.rand_normal r [| g.n; ci; g.hw; g.hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| co; g.cig; g.k; g.k |] ~mean:0.0 ~std:1.0 in
  if g.zeros > 0 then
    Array.iteri (fun i _ -> if i mod g.zeros = 0 then Tensor.set1 weight i 0.0) (Tensor.data weight);
  (* "Same" padding, or none when the dilated kernel still fits. *)
  let reach = g.dilation * (g.k - 1) in
  let pad = if g.same_pad || reach >= g.hw then reach / 2 + (reach mod 2) else 0 in
  (input, weight, { Ops.stride = g.stride; pad; groups = g.groups; dilation = g.dilation })

(* --- gradient properties over generated shapes ------------------------------- *)

(* A random NCHW activation shape, a pooling window that fits it, and a
   seed for the operands. *)
type act_geom = {
  an : int;
  ac : int;
  ah : int;
  aw : int;
  size : int;
  pstride : int;
  ppad : int;
  factor : int;
  aseed : int;
}

let act_geom_arb =
  let open QCheck.Gen in
  let gen =
    let* an = int_range 1 2 and* ac = int_range 1 4 in
    let* ah = int_range 3 6 and* aw = int_range 3 6 in
    let* size = int_range 2 3 and* pstride = int_range 1 2 and* factor = int_range 1 3 in
    let* ppad = int_range 0 (size - 1) and* aseed = int_bound 9999 in
    return { an; ac; ah; aw; size; pstride; ppad; factor; aseed }
  in
  QCheck.make gen ~print:(fun g ->
      Printf.sprintf "n%d c%d %dx%d pool%d s%d p%d up%d seed%d" g.an g.ac g.ah g.aw g.size
        g.pstride g.ppad g.factor g.aseed)

let normal r shape = Tensor.rand_normal r shape ~mean:0.0 ~std:1.0

(* [loss ()] is the sum of [forward ()] weighted by [coeffs], so the
   gradient of every parameter is the backward kernel at [gout = coeffs];
   every [(name, param, grad)] must match central differences. *)
let fd_holds ~seed ~coeffs ~forward params =
  let loss () = Tensor.sum (Tensor.mul (forward ()) coeffs) in
  List.for_all
    (fun (name, param, grad) ->
      match fd_mismatch ~seed ~loss ~param ~grad ~samples:6 ~tol:1e-2 () with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s: %s" name m)
    params

(* A tensor of distinct values at least 0.05 apart, so no perturbation of
   [fd_mismatch]'s step changes a pooling window's argmax. *)
let distinct r shape =
  let n = Array.fold_left ( * ) 1 shape in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Tensor.of_array shape (Array.map (fun k -> 0.05 *. float_of_int (k - (n / 2))) perm)

let act_shape g = [| g.an; g.ac; g.ah; g.aw |]

let gradient_props =
  let open QCheck in
  let prop name f = Test.make ~name:(name ^ " gradient matches fd") ~count:25 act_geom_arb f in
  let coeffs_for r out = normal r (Tensor.shape out) in
  [ prop "relu" (fun g ->
        (* Inputs kept at least 0.1 away from the kink at 0. *)
        let r = Rng.create g.aseed in
        let x =
          Tensor.map (fun v -> if v >= 0.0 then v +. 0.1 else v -. 0.1) (normal r (act_shape g))
        in
        let coeffs = coeffs_for r x in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> Ops.relu x)
          [ ("input", x, Ops.relu_backward ~input:x ~gout:coeffs ()) ]);
    prop "sigmoid" (fun g ->
        let r = Rng.create g.aseed in
        let x = normal r (act_shape g) in
        let coeffs = coeffs_for r x in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> Ops.sigmoid x)
          [ ("input", x, Ops.sigmoid_backward ~out:(Ops.sigmoid x) ~gout:coeffs ()) ]);
    prop "batch norm" (fun g ->
        let r = Rng.create g.aseed in
        let x = Tensor.rand_normal r (act_shape g) ~mean:1.0 ~std:1.5 in
        let gamma = Tensor.rand_normal r [| g.ac |] ~mean:1.0 ~std:0.2 in
        let beta = normal r [| g.ac |] in
        let coeffs = coeffs_for r x in
        let bn () = Ops.batch_norm ~input:x ~gamma ~beta ~eps:1e-5 () in
        let gin, ggamma, gbeta = Ops.batch_norm_backward ~gout:coeffs ~cache:(snd (bn ())) () in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> fst (bn ()))
          [ ("input", x, gin); ("gamma", gamma, ggamma); ("beta", beta, gbeta) ]);
    prop "max pool" (fun g ->
        let r = Rng.create g.aseed in
        let x = distinct r (act_shape g) in
        let pool () = Ops.max_pool2d x ~size:g.size ~stride:g.pstride ~pad:g.ppad in
        let out, indices = pool () in
        let coeffs = coeffs_for r out in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> fst (pool ()))
          [ ("input", x, Ops.max_pool2d_backward ~input:x ~gout:coeffs ~indices ()) ]);
    prop "avg pool" (fun g ->
        let r = Rng.create g.aseed in
        let x = normal r (act_shape g) in
        let { size; pstride = stride; ppad = pad; _ } = g in
        let pool () = Ops.avg_pool2d x ~size ~stride ~pad in
        let coeffs = coeffs_for r (pool ()) in
        fd_holds ~seed:g.aseed ~coeffs ~forward:pool
          [ ("input", x, Ops.avg_pool2d_backward ~input:x ~gout:coeffs ~size ~stride ~pad ()) ]);
    prop "global pool" (fun g ->
        let r = Rng.create g.aseed in
        let x = normal r (act_shape g) in
        let coeffs = normal r [| g.an; g.ac |] in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> Ops.global_avg_pool x)
          [ ("input", x, Ops.global_avg_pool_backward ~input:x ~gout:coeffs ()) ]);
    prop "linear" (fun g ->
        (* [ah] features into [aw] outputs. *)
        let r = Rng.create g.aseed in
        let input = normal r [| g.an; g.ah |] in
        let weight = normal r [| g.aw; g.ah |] and bias = normal r [| g.aw |] in
        let coeffs = normal r [| g.an; g.aw |] in
        let gin, gw, gb = Ops.linear_backward ~input ~weight ~gout:coeffs () in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> Ops.linear ~input ~weight ~bias ())
          [ ("input", input, gin); ("weight", weight, gw); ("bias", bias, gb) ]);
    prop "scale_channels" (fun g ->
        let r = Rng.create g.aseed in
        let input = normal r (act_shape g) and gate = normal r [| g.an; g.ac |] in
        let coeffs = coeffs_for r input in
        let gin, ggate = Ops.scale_channels_backward ~input ~gate ~gout:coeffs () in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> Ops.scale_channels ~input ~gate ())
          [ ("input", input, gin); ("gate", gate, ggate) ]);
    prop "concat" (fun g ->
        (* Parts of [ac], 1 and [factor] channels. *)
        let r = Rng.create g.aseed in
        let parts = [ g.ac; 1; g.factor ] in
        let xs = List.map (fun c -> normal r [| g.an; c; g.ah; g.aw |]) parts in
        let coeffs = normal r [| g.an; g.ac + 1 + g.factor; g.ah; g.aw |] in
        let grads = Ops.split_channels_backward ~gout:coeffs ~parts () in
        fd_holds ~seed:g.aseed ~coeffs ~forward:(fun () -> Ops.concat_channels xs)
          (List.mapi (fun i (x, gx) -> (Printf.sprintf "part %d" i, x, gx)) (List.combine xs grads)));
    prop "upsample" (fun g ->
        let r = Rng.create g.aseed in
        let x = normal r (act_shape g) in
        let up () = Ops.upsample_nearest x g.factor in
        let coeffs = coeffs_for r (up ()) in
        fd_holds ~seed:g.aseed ~coeffs ~forward:up
          [ ("input", x, Ops.upsample_nearest_backward ~input:x ~gout:coeffs g.factor) ]) ]

(* --- the tensor arena -------------------------------------------------------- *)

(* Every kernel that takes [?arena], forward and backward, on operands of
   one convolution geometry; the tensors they return, in a fixed order. *)
let arena_kernels ?arena g ~scale =
  let input, weight, p = conv_operands g in
  let r = Rng.create (g.seed + 1) in
  let x = Tensor.scale scale input in
  let n = g.n and c = (Tensor.shape x).(1) and hw = g.hw in
  let like t = Tensor.scale scale (normal r (Tensor.shape t)) in
  let y = Ops.conv2d ?arena ~input:x ~weight ~bias:None p in
  let gin = Ops.conv2d_backward_input ?arena ~input:x ~weight ~gout:(like y) p in
  let relu = Ops.relu ?arena x in
  let grelu = Ops.relu_backward ?arena ~input:x ~gout:(like x) () in
  let sg = Ops.sigmoid ?arena x in
  let gsg = Ops.sigmoid_backward ?arena ~out:sg ~gout:(like x) () in
  let gate = Tensor.scale scale (normal r [| n; c |]) in
  let sc = Ops.scale_channels ?arena ~input:x ~gate () in
  let gsc, ggate = Ops.scale_channels_backward ?arena ~input:x ~gate ~gout:(like x) () in
  let mp, indices = Ops.max_pool2d ?arena x ~size:2 ~stride:2 ~pad:0 in
  let gmp = Ops.max_pool2d_backward ?arena ~input:x ~gout:(like mp) ~indices () in
  let ap = Ops.avg_pool2d ?arena x ~size:3 ~stride:1 ~pad:1 in
  let gap = Ops.avg_pool2d_backward ?arena ~input:x ~gout:(like ap) ~size:3 ~stride:1 ~pad:1 () in
  let up = Ops.upsample_nearest ?arena x 2 in
  let gup = Ops.upsample_nearest_backward ?arena ~input:x ~gout:(like up) 2 in
  let gp = Ops.global_avg_pool ?arena x in
  let ggp = Ops.global_avg_pool_backward ?arena ~input:x ~gout:(like gp) () in
  let flat = Tensor.reshape x [| n; c * hw * hw |] in
  let lw = normal r [| 3; c * hw * hw |] and lb = normal r [| 3 |] in
  let lin = Ops.linear ?arena ~input:flat ~weight:lw ~bias:lb () in
  let glin, glw, glb = Ops.linear_backward ?arena ~input:flat ~weight:lw ~gout:(like lin) () in
  let gamma = normal r [| c |] and beta = normal r [| c |] in
  let bn, cache = Ops.batch_norm ?arena ~input:x ~gamma ~beta ~eps:1e-5 () in
  let gbn, ggamma, gbeta = Ops.batch_norm_backward ?arena ~gout:(like bn) ~cache () in
  let cat = Ops.concat_channels ?arena [ x; sg ] in
  let split = Ops.split_channels_backward ?arena ~gout:(like cat) ~parts:[ c; c ] () in
  [ y; gin; relu; grelu; sg; gsg; sc; gsc; ggate; mp; gmp; ap; gap; up; gup; gp; ggp; lin; glin;
    glw; glb; bn; gbn; ggamma; gbeta; cat ]
  @ split

let arena_props =
  let open QCheck in
  [ Test.make ~name:"a dirty arena changes no kernel bit" ~count:40 conv_geom_arb
      (fun geom ->
        let arena = Arena.create () in
        (* A first pass on other values leaves every buffer dirty; the
           second takes the same lengths in the same order. *)
        Arena.scoped arena (fun () -> ignore (arena_kernels ~arena geom ~scale:(-37.0)));
        let want = arena_kernels geom ~scale:1.0 in
        Arena.scoped arena (fun () ->
            let got = arena_kernels ~arena geom ~scale:1.0 in
            (Arena.stats arena).as_reused >= List.length got
            && List.for_all2 same_bits want got)) ]

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"conv matches naive on random shapes" ~count:60 conv_geom_arb
      (fun geom ->
        let input, weight, p = conv_operands geom in
        let fast = Ops.conv2d ~input ~weight ~bias:None p in
        same_bits fast
          (naive_conv ~dilation:p.Ops.dilation ~input ~weight ~stride:p.stride ~pad:p.pad
             ~groups:p.groups ()));
    Test.make ~name:"conv backward kernels match naive bit for bit" ~count:60 conv_geom_arb
      (fun geom ->
        let input, weight, p = conv_operands geom in
        let out = Ops.conv2d ~input ~weight ~bias:None p in
        let gout = Tensor.rand_normal (Rng.create geom.seed) (Tensor.shape out) ~mean:0.0 ~std:1.0 in
        let gin = Ops.conv2d_backward_input ~input ~weight ~gout p in
        let gin', gw, _ = Ops.conv2d_backward ~input ~weight ~gout p in
        let { Ops.stride; pad; groups; dilation } = p in
        same_bits gin gin'
        && same_bits gin
             (naive_conv_backward_input ~dilation ~input ~weight ~gout ~stride ~pad ~groups ())
        && same_bits gw
             (naive_conv_backward_weight ~dilation ~input ~weight ~gout ~stride ~pad ~groups ()));
    Test.make ~name:"softmax-ce loss is non-negative" ~count:50
      (pair (int_range 1 5) (int_range 2 6))
      (fun (n, k) ->
        let r = Rng.create (n * k) in
        let logits = Tensor.rand_normal r [| n; k |] ~mean:0.0 ~std:3.0 in
        let labels = Array.init n (fun i -> i mod k) in
        fst (Ops.softmax_cross_entropy ~logits ~labels) >= 0.0);
    Test.make ~name:"upsample backward is adjoint of forward" ~count:20
      (pair (int_range 1 3) (int_range 2 3))
      (fun (c, f) ->
        (* <up(x), y> = <x, up^T(y)> *)
        let r = Rng.create (c * f) in
        let x = Tensor.rand_normal r [| 1; c; 3; 3 |] ~mean:0.0 ~std:1.0 in
        let y = Tensor.rand_normal r [| 1; c; 3 * f; 3 * f |] ~mean:0.0 ~std:1.0 in
        let lhs = Tensor.sum (Tensor.mul (Ops.upsample_nearest x f) y) in
        let rhs = Tensor.sum (Tensor.mul x (Ops.upsample_nearest_backward ~input:x ~gout:y f)) in
        Float.abs (lhs -. rhs) < 1e-6) ]
  @ gradient_props @ arena_props

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tensor"
    [ ( "tensor",
        [ quick "create/get/set" t_create_get_set;
          quick "init row-major" t_init_index_order;
          quick "arith" t_map_arith;
          quick "reshape shares data" t_reshape_shares;
          quick "axpy" t_axpy;
          quick "argmax" t_argmax;
          quick "deterministic rand" t_rand_deterministic ] );
      ( "conv",
        [ quick "basic 3x3" (conv_case ~n:2 ~ci:3 ~co:4 ~hw:6 ~k:3 ~stride:1 ~pad:1 ~groups:1);
          quick "stride 2" (conv_case ~n:1 ~ci:4 ~co:4 ~hw:8 ~k:3 ~stride:2 ~pad:1 ~groups:1);
          quick "1x1" (conv_case ~n:2 ~ci:8 ~co:4 ~hw:5 ~k:1 ~stride:1 ~pad:0 ~groups:1);
          quick "grouped" (conv_case ~n:1 ~ci:8 ~co:8 ~hw:6 ~k:3 ~stride:1 ~pad:1 ~groups:4);
          quick "depthwise" (conv_case ~n:1 ~ci:6 ~co:6 ~hw:5 ~k:3 ~stride:1 ~pad:1 ~groups:6);
          (* A 5x5 kernel on a 2x2 plane still has one output, whose taps
             reach past the plane and its padding. *)
          quick "depthwise kernel past the plane"
            (conv_case ~n:1 ~ci:3 ~co:6 ~hw:2 ~k:5 ~stride:4 ~pad:0 ~groups:3);
          quick "no padding" (conv_case ~n:1 ~ci:2 ~co:3 ~hw:6 ~k:3 ~stride:1 ~pad:0 ~groups:1);
          quick "bias" t_conv_bias;
          quick "backward fd" t_conv_backward;
          quick "backward input fd" t_conv_backward_input;
          quick "non-finite operands" t_conv_non_finite;
          quick "depthwise non-finite operands" t_depthwise_non_finite;
          quick "workload shapes" t_conv_workload_shapes ] );
      ( "kernels",
        [ quick "linear backward fd" t_linear_backward;
          quick "bn normalizes" t_bn_forward_stats;
          quick "bn backward fd" t_bn_backward;
          quick "relu and bn bits" t_elementwise_bits;
          quick "pooling" t_pool;
          quick "pooling backward fd" t_pool_backward;
          quick "global avg pool" t_gap;
          quick "upsample" t_upsample_roundtrip;
          quick "upsample bits" t_upsample_bits;
          quick "concat/split" t_concat_split;
          quick "softmax-ce" t_softmax_ce;
          quick "softmax-ce fd" t_softmax_grad_fd;
          quick "pad channels" t_pad_channels ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
