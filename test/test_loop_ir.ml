(* Loop-nest lowering and interpretation tests: every semantics-preserving
   schedule must compute exactly the reference convolution, and each neural
   transformation must compute the intended reduced convolution. *)

let rng () = Rng.create 11

(* Runs a lowered program for one sample and returns the [co;oh;ow] output.
   The padded input is cropped to the program's expected footprint (a strided
   convolution can leave an unread trailing row/column). *)
let run_program nest schedule ~weight ~input_padded =
  let prog = Loop_nest.lower nest schedule in
  let co = Poly.iter_extent schedule "co" in
  let oh = Poly.iter_extent schedule "oh" and ow = Poly.iter_extent schedule "ow" in
  let ci = (Tensor.shape input_padded).(0) in
  let ihp = ((oh - 1) * nest.Loop_nest.nc_stride) + Poly.iter_extent schedule "kh" in
  let iwp = ((ow - 1) * nest.nc_stride) + Poly.iter_extent schedule "kw" in
  let input =
    if (Tensor.shape input_padded).(1) = ihp && (Tensor.shape input_padded).(2) = iwp
    then input_padded
    else Tensor.init [| ci; ihp; iwp |] (fun idx -> Tensor.get input_padded idx)
  in
  let output = Tensor.zeros [| co; oh; ow |] in
  Loop_nest.run prog ~output ~weight ~input;
  output

(* Reference through Ops.conv2d (batch of one). *)
let reference nest ~weight ~input ~pad ~groups =
  let out =
    Ops.conv2d
      ~input:(Tensor.reshape input [| 1; nest.Loop_nest.nc_ci; (Tensor.shape input).(1); (Tensor.shape input).(2) |])
      ~weight ~bias:None
      { Ops.stride = nest.nc_stride; pad; groups; dilation = 1 }
  in
  let s = Tensor.shape out in
  Tensor.reshape out [| s.(1); s.(2); s.(3) |]

let make_case ~co ~ci ~hw ~k ~stride ~groups =
  let pad = k / 2 in
  let oh = Ops.conv_out_dim hw ~k ~stride ~pad in
  let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh ~ow:oh ~k ~stride ~groups in
  let r = rng () in
  let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| co; ci / groups; k; k |] ~mean:0.0 ~std:1.0 in
  let padded = Loop_nest.pad_input input ~pad in
  (nest, input, weight, padded, pad)

let check_matches_reference name schedule_fn ~co ~ci ~hw ~k ~stride ~groups () =
  let nest, input, weight, padded, pad = make_case ~co ~ci ~hw ~k ~stride ~groups in
  let s = schedule_fn (Loop_nest.baseline_schedule nest) in
  let got = run_program nest s ~weight ~input_padded:padded in
  let want = reference nest ~weight ~input ~pad ~groups in
  Alcotest.(check bool) name true (Tensor.approx_equal ~tol:1e-4 got want)

let id x = x

let t_identity = check_matches_reference "identity" id ~co:4 ~ci:6 ~hw:6 ~k:3 ~stride:1 ~groups:1
let t_stride2 = check_matches_reference "stride 2" id ~co:4 ~ci:4 ~hw:8 ~k:3 ~stride:2 ~groups:1
let t_1x1 = check_matches_reference "1x1" id ~co:6 ~ci:8 ~hw:5 ~k:1 ~stride:1 ~groups:1

let t_baseline_grouped =
  check_matches_reference "baseline grouped" id ~co:8 ~ci:8 ~hw:5 ~k:3 ~stride:1 ~groups:4

let t_interchange =
  check_matches_reference "interchange co/ci" (fun s -> Poly.interchange s 0 1)
    ~co:4 ~ci:6 ~hw:6 ~k:3 ~stride:1 ~groups:1

let t_reorder =
  check_matches_reference "full reorder"
    (fun s -> Poly.reorder s [| 5; 4; 3; 2; 1; 0 |])
    ~co:4 ~ci:4 ~hw:5 ~k:3 ~stride:1 ~groups:1

let t_split =
  check_matches_reference "split ci by 3"
    (fun s -> Poly.split s ~pos:1 ~factor:3)
    ~co:4 ~ci:6 ~hw:6 ~k:3 ~stride:1 ~groups:1

let t_tile =
  check_matches_reference "tile oh"
    (fun s -> Poly.tile s ~pos:2 ~factor:3)
    ~co:4 ~ci:4 ~hw:6 ~k:3 ~stride:1 ~groups:1

let t_fuse =
  check_matches_reference "fuse oh/ow"
    (fun s -> Poly.fuse s ~pos:2)
    ~co:4 ~ci:4 ~hw:6 ~k:3 ~stride:1 ~groups:1

let t_fuse_split_mix =
  check_matches_reference "split+fuse+interchange"
    (fun s ->
      let s = Poly.split s ~pos:0 ~factor:2 in
      let s = Poly.fuse s ~pos:3 in
      Poly.interchange s 1 2)
    ~co:4 ~ci:4 ~hw:6 ~k:3 ~stride:1 ~groups:1

let t_annotations_noop =
  check_matches_reference "unroll/vectorize/bind are semantic no-ops"
    (fun s ->
      let s = Poly.unroll s ~pos:0 ~factor:4 in
      let s = Poly.vectorize s ~pos:(Poly.loop_count s - 1) in
      Poly.bind s ~pos:0 Poly.Block_x)
    ~co:4 ~ci:4 ~hw:5 ~k:3 ~stride:1 ~groups:1

(* --- Neural transformations ------------------------------------------ *)

let t_group_matches_grouped_conv () =
  (* Applying the group transformation to a dense conv and executing it with
     a grouped weight tensor must equal Ops.conv2d with groups=G. *)
  let co = 8 and ci = 8 and hw = 5 and k = 3 and g = 4 in
  let pad = k / 2 in
  let oh = Ops.conv_out_dim hw ~k ~stride:1 ~pad in
  let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let r = rng () in
  let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| co; ci / g; k; k |] ~mean:0.0 ~std:1.0 in
  let s = Poly.group (Loop_nest.baseline_schedule nest) ~co:"co" ~ci:"ci" ~factor:g in
  let got = run_program nest s ~weight ~input_padded:(Loop_nest.pad_input input ~pad) in
  let want = reference nest ~weight ~input ~pad ~groups:g in
  Alcotest.(check bool) "group == grouped conv" true (Tensor.approx_equal ~tol:1e-4 got want)

let t_depthwise_matches () =
  let c = 6 and hw = 5 and k = 3 in
  let pad = k / 2 in
  let oh = Ops.conv_out_dim hw ~k ~stride:1 ~pad in
  let nest = Loop_nest.conv_nest_of_dims ~co:c ~ci:c ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let r = rng () in
  let input = Tensor.rand_normal r [| c; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| c; 1; k; k |] ~mean:0.0 ~std:1.0 in
  let s = Poly.depthwise (Loop_nest.baseline_schedule nest) ~co:"co" ~ci:"ci" in
  let got = run_program nest s ~weight ~input_padded:(Loop_nest.pad_input input ~pad) in
  let want = reference nest ~weight ~input ~pad ~groups:c in
  Alcotest.(check bool) "depthwise == G=C conv" true (Tensor.approx_equal ~tol:1e-4 got want)

let t_bottleneck_matches_truncated () =
  (* Bottlenecking co by B equals a convolution with the first Co/B filters. *)
  let co = 8 and ci = 4 and hw = 5 and k = 3 and b = 2 in
  let pad = k / 2 in
  let oh = Ops.conv_out_dim hw ~k ~stride:1 ~pad in
  let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let r = rng () in
  let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight_small = Tensor.rand_normal r [| co / b; ci; k; k |] ~mean:0.0 ~std:1.0 in
  let s = Poly.bottleneck (Loop_nest.baseline_schedule nest) ~iter:"co" ~factor:b in
  let got = run_program nest s ~weight:weight_small ~input_padded:(Loop_nest.pad_input input ~pad) in
  let small_nest = Loop_nest.conv_nest_of_dims ~co:(co / b) ~ci ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let want = reference small_nest ~weight:weight_small ~input ~pad ~groups:1 in
  Alcotest.(check bool) "bottleneck == truncated conv" true
    (Tensor.approx_equal ~tol:1e-4 got want)

let t_input_bottleneck_via_interchange () =
  (* §2.3: interchange then bottleneck gives input-channel bottlenecking —
     the result must equal a convolution that reads only the first Ci/B input
     channels. *)
  let co = 4 and ci = 8 and hw = 5 and k = 3 and b = 2 in
  let pad = k / 2 in
  let oh = Ops.conv_out_dim hw ~k ~stride:1 ~pad in
  let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let r = rng () in
  let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| co; ci / b; k; k |] ~mean:0.0 ~std:1.0 in
  let s = Poly.interchange (Loop_nest.baseline_schedule nest) 0 1 in
  let s = Poly.bottleneck s ~iter:"ci" ~factor:b in
  (* The transformed program only reads the first ci/b input channels. *)
  let small_input = Tensor.init [| ci / b; hw; hw |] (fun idx -> Tensor.get input idx) in
  let got =
    run_program nest s ~weight ~input_padded:(Loop_nest.pad_input small_input ~pad)
  in
  let small_nest = Loop_nest.conv_nest_of_dims ~co ~ci:(ci / b) ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let want = reference small_nest ~weight ~input:small_input ~pad ~groups:1 in
  Alcotest.(check bool) "input bottleneck" true (Tensor.approx_equal ~tol:1e-4 got want)

let t_spatial_bottleneck_subset () =
  (* The §5.3 spatial bottleneck computes the top-left quadrant rows/cols of
     the output exactly. *)
  let co = 4 and ci = 4 and hw = 8 and k = 3 in
  let pad = k / 2 in
  let oh = Ops.conv_out_dim hw ~k ~stride:1 ~pad in
  let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
  let r = rng () in
  let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal r [| co; ci; k; k |] ~mean:0.0 ~std:1.0 in
  let s = Loop_nest.baseline_schedule nest in
  let s = Poly.bottleneck s ~iter:"oh" ~factor:2 in
  let s = Poly.bottleneck s ~iter:"ow" ~factor:2 in
  let prog = Loop_nest.lower nest s in
  (* The lowered output extent follows the restricted domain, and so does the
     input footprint: crop the padded input to the program's extents. *)
  let padded = Loop_nest.pad_input input ~pad in
  let ihp = ((oh / 2) - 1) + k in
  let cropped = Tensor.init [| ci; ihp; ihp |] (fun idx -> Tensor.get padded idx) in
  let out = Tensor.zeros [| co; oh / 2; oh / 2 |] in
  Loop_nest.run prog ~output:out ~weight ~input:cropped;
  let full = reference nest ~weight ~input ~pad ~groups:1 in
  let ok = ref true in
  for c = 0 to co - 1 do
    for h = 0 to (oh / 2) - 1 do
      for w = 0 to (oh / 2) - 1 do
        if Float.abs (Tensor.get out [| c; h; w |] -. Tensor.get full [| c; h; w |]) > 1e-4
        then ok := false
      done
    done
  done;
  Alcotest.(check bool) "spatial prefix exact" true !ok

let contains_substring text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0

let t_printer_smoke () =
  let nest = Loop_nest.conv_nest_of_dims ~co:4 ~ci:4 ~oh:4 ~ow:4 ~k:3 ~stride:1 ~groups:1 in
  let s = Poly.tile (Loop_nest.baseline_schedule nest) ~pos:0 ~factor:2 in
  let s = Poly.unroll s ~pos:1 ~factor:2 in
  let text = Format.asprintf "%a" Loop_nest.pp (Loop_nest.lower nest s) in
  Alcotest.(check bool) "mentions loops" true (String.length text > 50);
  Alcotest.(check bool) "has statement" true (contains_substring text "O[")

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"random classical schedules compute the reference conv" ~count:30
      (pair (small_list (int_range 0 4)) (int_range 0 1000))
      (fun (ops, seed) ->
        let co = 4 and ci = 4 and hw = 5 and k = 3 in
        let pad = 1 in
        let oh = Ops.conv_out_dim hw ~k ~stride:1 ~pad in
        let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh ~ow:oh ~k ~stride:1 ~groups:1 in
        let r = Rng.create seed in
        let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
        let weight = Tensor.rand_normal r [| co; ci; k; k |] ~mean:0.0 ~std:1.0 in
        let apply s code =
          let n = Poly.loop_count s in
          try
            match code with
            | 0 -> Poly.interchange s 0 (n - 1)
            | 1 -> Poly.split s ~pos:(n / 2) ~factor:2
            | 2 -> if n >= 2 then Poly.fuse s ~pos:(n - 2) else s
            | 3 -> Poly.tile s ~pos:0 ~factor:2
            | _ -> Poly.unroll s ~pos:(n - 1) ~factor:2
          with Poly.Illegal _ -> s
        in
        let s = List.fold_left apply (Loop_nest.baseline_schedule nest) ops in
        let got = run_program nest s ~weight ~input_padded:(Loop_nest.pad_input input ~pad) in
        let want = reference nest ~weight ~input ~pad ~groups:1 in
        Tensor.approx_equal ~tol:1e-4 got want) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "loop_ir"
    [ ( "classical",
        [ quick "identity" t_identity;
          quick "stride 2" t_stride2;
          quick "1x1" t_1x1;
          quick "baseline grouped" t_baseline_grouped;
          quick "interchange" t_interchange;
          quick "reorder" t_reorder;
          quick "split" t_split;
          quick "tile" t_tile;
          quick "fuse" t_fuse;
          quick "mixed" t_fuse_split_mix;
          quick "annotations no-op" t_annotations_noop ] );
      ( "neural",
        [ quick "group" t_group_matches_grouped_conv;
          quick "depthwise" t_depthwise_matches;
          quick "bottleneck" t_bottleneck_matches_truncated;
          quick "input bottleneck (sec 2.3)" t_input_bottleneck_via_interchange;
          quick "spatial bottleneck prefix" t_spatial_bottleneck_subset ] );
      ("printer", [ quick "smoke" t_printer_smoke ]);
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
