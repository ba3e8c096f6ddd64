(* Kernel bits, to check the bytecode entry points of the C kernels and
   the bytecode primitives of the random generator against the native
   ones.  Each line names one path and the MD5 digest of the bits of its
   result:
   - an im2col forward conv (the packing and the ordered dot product, with
     row and column tails), on a square plane and on a 5x7 one at stride 2
     and dilation 2;
   - a depthwise forward conv (the padded stencil), on a square plane
     and on a 5x7 one with a channel multiplier of 2 at strides 1 and 2;
   - the gathered input gradient of a stride-1 conv (the packed weights,
     the packing and the dot product again), square and 5x7 at dilation 2;
   - the phased input gradient of a stride-2 conv, square, 5x7, and 5x7 at
     dilation 2 (where half the phases meet no tap);
   - the input gradient of a depthwise conv (the padded stencil, phase
     by phase), on the same planes;
   - the input and weight gradients of the full backward (the direct loop
     with the weight gradient);
   - the direct forward loop and the direct input gradient, which only
     non-finite operands reach, on a 5x7 plane at stride 2 with an
     infinite input or weight;
   - ReLU forward and backward on random signs;
   - nearest upsampling forward and backward, by 2 and by 3, on a 5x7
     plane;
   - batch-norm forward and its input, gamma and beta gradients, at seven
     channels: one block of four side-by-side channel sums and a tail of
     three;
   - an Rng stream ([bits64], [gauss] and [int] draws), whose state the
     unchecked 64-bit bytes accessors load and store;
   - the 16x16 probe batch of [Job.probe_batch], images and labels.

   A 5x7 plane tells height from width, so a kernel that swapped them
   would read other cells than its native twin.

   Usage: conv_bits [EXPECTED].  Without an argument the lines are
   printed; with one they are compared to the lines of the file
   EXPECTED, and the first difference exits 1. *)

let digest words =
  let b = Bytes.create (8 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_int64_le b (8 * i) w) words;
  Digest.to_hex (Digest.bytes b)

let bits t = digest (Array.map Int64.bits_of_float (Tensor.data t))

let rng_stream () =
  let r = Rng.create 2026 in
  let draws f = Array.init 100 (fun _ -> f ()) in
  digest
    (Array.concat
       [ draws (fun () -> Rng.bits64 r);
         draws (fun () -> Int64.bits_of_float (Rng.gauss r));
         draws (fun () -> Int64.of_int (Rng.int r 10));
         draws (fun () -> Int64.of_int (Rng.int r max_int)) ])

let probe_bits () =
  let probe = Job.probe_batch (Rng.create 42) ~input_size:16 in
  digest
    (Array.append
       (Array.map Int64.bits_of_float (Tensor.data probe.Train.images))
       (Array.map Int64.of_int probe.labels))

let lines () =
  let r = Rng.create 2026 in
  let normal shape = Tensor.rand_normal r shape ~mean:0.0 ~std:1.0 in
  let p ?(stride = 1) ?(groups = 1) ?(dilation = 1) () =
    { Ops.stride; pad = dilation; groups; dilation }
  in
  (* Ten output channels and a 5x5 plane: a row tail of two and an odd
     column count. *)
  let input = normal [| 2; 8; 5; 5 |] and weight = normal [| 10; 8; 3; 3 |] in
  let fwd = Ops.conv2d ~input ~weight ~bias:None (p ()) in
  let gather = Ops.conv2d_backward_input ~input ~weight ~gout:(normal (Tensor.shape fwd)) (p ()) in
  let dw_input = normal [| 2; 6; 7; 7 |] and dw_weight = normal [| 6; 1; 3; 3 |] in
  let dw = Ops.conv2d ~input:dw_input ~weight:dw_weight ~bias:None (p ~groups:6 ()) in
  let dw_gin =
    Ops.conv2d_backward_input ~input:dw_input ~weight:dw_weight ~gout:(normal (Tensor.shape dw))
      (p ~groups:6 ())
  in
  (* The forward output and the input gradient of [weight] on [input]. *)
  let both input params =
    let out = Ops.conv2d ~input ~weight ~bias:None params in
    let gout = normal (Tensor.shape out) in
    (out, gout, Ops.conv2d_backward_input ~input ~weight ~gout params)
  in
  let s2 = p ~stride:2 () in
  let s2_input = normal [| 2; 8; 7; 7 |] in
  let _, gout, phased = both s2_input s2 in
  let gin, gw, _ = Ops.conv2d_backward ~input:s2_input ~weight ~gout s2 in
  let rect = normal [| 2; 8; 5; 7 |] in
  let rect_fwd, _, _ = both rect (p ~stride:2 ~dilation:2 ()) in
  let _, _, rect_gather = both rect (p ~dilation:2 ()) in
  let _, _, rect_phased = both rect s2 in
  let _, _, rect_phased_d2 = both rect (p ~stride:2 ~dilation:2 ()) in
  let x = normal [| 2; 7; 5; 5 |] and g = normal [| 2; 7; 5; 5 |] in
  let gamma = normal [| 7 |] and beta = normal [| 7 |] in
  let bn, cache = Ops.batch_norm ~input:x ~gamma ~beta ~eps:1e-5 () in
  let bn_gin, bn_ggamma, bn_gbeta = Ops.batch_norm_backward ~gout:g ~cache () in
  (* Drawn after the operands above, so those keep their bits.  Four
     input channels of 5x7, two output channels each. *)
  let dw_rect = normal [| 2; 4; 5; 7 |] and dw_rect_weight = normal [| 8; 1; 3; 3 |] in
  let dw_both params =
    let out = Ops.conv2d ~input:dw_rect ~weight:dw_rect_weight ~bias:None params in
    let gout = normal (Tensor.shape out) in
    (out, Ops.conv2d_backward_input ~input:dw_rect ~weight:dw_rect_weight ~gout params)
  in
  let dw_rect_fwd, dw_rect_gin = dw_both (p ~groups:4 ()) in
  let dw_rect_s2_fwd, dw_rect_s2_gin = dw_both (p ~stride:2 ~groups:4 ()) in
  let inf_input = normal [| 2; 8; 5; 7 |] and inf_weight = normal [| 10; 8; 3; 3 |] in
  Tensor.set inf_input [| 1; 2; 3; 4 |] infinity;
  Tensor.set inf_weight [| 3; 1; 0; 2 |] infinity;
  let direct_fwd = Ops.conv2d ~input:inf_input ~weight ~bias:None s2 in
  let direct_gin =
    let gout = normal (Tensor.shape direct_fwd) in
    Ops.conv2d_backward_input ~input:rect ~weight:inf_weight ~gout s2
  in
  let up_input = normal [| 2; 3; 5; 7 |] in
  let up f = Ops.upsample_nearest up_input f in
  let up_back f =
    Ops.upsample_nearest_backward ~input:up_input ~gout:(normal [| 2; 3; 5 * f; 7 * f |]) f
  in
  [ ("im2col forward", fwd); ("im2col forward 5x7 s2 d2", rect_fwd); ("depthwise forward", dw);
    ("depthwise forward 5x7 x2", dw_rect_fwd); ("depthwise forward 5x7 x2 s2", dw_rect_s2_fwd);
    ("gathered input gradient", gather); ("gathered input gradient 5x7 d2", rect_gather);
    ("phased input gradient s2", phased); ("phased input gradient 5x7 s2", rect_phased);
    ("phased input gradient 5x7 s2 d2", rect_phased_d2); ("depthwise input gradient", dw_gin);
    ("depthwise input gradient 5x7 x2", dw_rect_gin);
    ("depthwise input gradient 5x7 x2 s2", dw_rect_s2_gin); ("backward input gradient", gin);
    ("backward weight gradient", gw); ("direct forward 5x7 s2", direct_fwd);
    ("direct input gradient 5x7 s2", direct_gin); ("relu forward", Ops.relu x);
    ("relu backward", Ops.relu_backward ~input:x ~gout:g ()); ("batch-norm forward", bn);
    ("batch-norm input gradient", bn_gin); ("batch-norm gamma gradient", bn_ggamma);
    ("batch-norm beta gradient", bn_gbeta); ("upsample forward 5x7 f2", up 2);
    ("upsample forward 5x7 f3", up 3); ("upsample backward 5x7 f2", up_back 2);
    ("upsample backward 5x7 f3", up_back 3) ]
  |> List.map (fun (name, t) -> name ^ " " ^ bits t)

let () =
  let got = lines () @ [ "rng stream " ^ rng_stream (); "probe batch 16x16 " ^ probe_bits () ] in
  match Sys.argv with
  | [| _ |] -> List.iter print_endline got
  | [| _; path |] ->
      let want = In_channel.with_open_text path In_channel.input_all in
      let want = List.filter (( <> ) "") (String.split_on_char '\n' want) in
      if want <> got then begin
        List.iteri
          (fun i g ->
            match List.nth_opt want i with
            | Some w when w = g -> ()
            | w -> Printf.eprintf "conv_bits: got %s, expected %s\n" g (Option.value w ~default:"-"))
          got;
        exit 1
      end
  | _ ->
      prerr_endline "usage: conv_bits [EXPECTED]";
      exit 2
