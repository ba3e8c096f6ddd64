(* Fisher Potential tests: the formula itself, graph-level aggregation,
   clipped legality, and the measure's behaviour on structures with
   obviously different capacities. *)

let rng () = Rng.create 17

let t_channel_score_formula () =
  (* Hand-computed instance of eq. (4): N=1, C=1, 2x1 activation. *)
  let activation = Tensor.of_array [| 1; 1; 2; 1 |] [| 2.0; 3.0 |] in
  let grad = Tensor.of_array [| 1; 1; 2; 1 |] [| 0.5; -1.0 |] in
  (* sum A*g = 1 - 3 = -2; delta = (-2)^2 / (2*1) = 2 *)
  Alcotest.(check (float 1e-9)) "delta_c" 2.0
    (Fisher.channel_score ~activation ~grad ~channel:0)

let t_channel_score_batch_mean () =
  (* Two identical examples double nothing: 1/2N of the summed squares. *)
  let activation = Tensor.of_array [| 2; 1; 1; 1 |] [| 2.0; 2.0 |] in
  let grad = Tensor.of_array [| 2; 1; 1; 1 |] [| 1.0; 1.0 |] in
  (* per-example (2*1)^2 = 4, sum 8, /(2*2) = 2 *)
  Alcotest.(check (float 1e-9)) "batch mean" 2.0
    (Fisher.channel_score ~activation ~grad ~channel:0)

let t_layer_score_sums_channels () =
  let r = rng () in
  let activation = Tensor.rand_normal r [| 2; 3; 2; 2 |] ~mean:0.0 ~std:1.0 in
  let grad = Tensor.rand_normal r [| 2; 3; 2; 2 |] ~mean:0.0 ~std:1.0 in
  let by_hand =
    List.fold_left
      (fun acc c -> acc +. Fisher.channel_score ~activation ~grad ~channel:c)
      0.0 [ 0; 1; 2 ]
  in
  Alcotest.(check (float 1e-9)) "sum" by_hand (Fisher.layer_score ~activation ~grad)

let t_zero_grad_zero_score () =
  let activation = Tensor.ones [| 1; 2; 2; 2 |] in
  let grad = Tensor.zeros [| 1; 2; 2; 2 |] in
  Alcotest.(check (float 1e-12)) "zero" 0.0 (Fisher.layer_score ~activation ~grad)

let t_model_scores_positive () =
  let r = rng () in
  let model = Models.build (Models.resnet18 ()) r in
  let probe = Exp_common.probe_batch (Rng.split r) ~input_size:16 in
  let s = Fisher.score model probe in
  Alcotest.(check int) "per-site count" (Array.length model.Models.sites)
    (Array.length s.Fisher.per_site);
  Alcotest.(check bool) "total positive" true (s.Fisher.total > 0.0);
  Array.iter
    (fun v -> Alcotest.(check bool) "site non-negative" true (v >= 0.0))
    s.Fisher.per_site

let t_deterministic () =
  let model = Models.build (Models.resnet18 ()) (Rng.create 3) in
  let probe = Exp_common.probe_batch (Rng.create 4) ~input_size:16 in
  let a = Fisher.potential model probe in
  let b = Fisher.potential model probe in
  Alcotest.(check (float 1e-12)) "same input, same score" a b

(* Golden Fisher bits: the exact IEEE-754 bits of [Fisher.score]'s total
   and per-site scores for the baseline and four seeded candidates of four
   families, recorded before the convolution kernels were reordered.  Any
   change of accumulation order anywhere in the Fisher pass moves some bit
   and fails here, loudly, rather than shifting a search result later. *)
(* A zoo network at build seed 42 and its probe batch. *)
let zoo_model name =
  let model = Models.build (Option.get (Zoo.spec name)) (Rng.create 42) in
  (model, Exp_common.probe_batch (Rng.create 1) ~input_size:model.Models.input_size)

(* A seeded candidate: a valid implementation drawn for every site. *)
let candidate_impls model seed =
  let r = Rng.create seed in
  Array.map
    (fun site ->
      let options = Array.of_list (Conv_impl.all_options site) in
      options.(Rng.int r (Array.length options)))
    model.Models.sites

let candidate model seed =
  Models.rebuild model (Rng.create (1000 + seed)) (candidate_impls model seed)

let score_bits ?arena m probe =
  let s = Fisher.score ?arena m probe in
  (Int64.bits_of_float s.Fisher.total, Array.map Int64.bits_of_float s.per_site)

let golden_scores ?arena name =
  let model, probe = zoo_model name in
  model :: List.map (candidate model) [ 1; 2; 3; 4 ]
  |> List.map (fun m -> score_bits ?arena m probe)

let golden_bits =
  [
    ("resnet18",
      [ (0x3fb0410cd69ae77cL,
          [| 0x3f9269ec58de58faL; 0x3f8190ab748d3010L; 0x3f79bcbcbd263133L; 0x3f76930988a8835eL; 0x3f72ce64ca789e81L; 0x3f6d1ca442648f80L; 0x3f686a99cc040bddL; 0x3f5e7cb3508a5c37L; 0x3f63ab90cf10131aL; 0x3f602fb0deee8ab1L; 0x3f579b20974a05b4L; 0x3f555999883dd69eL; 0x3f564c11d15b9f27L; 0x3f5c47e76af06e09L; 0x3f4bf6a67937f170L; 0x3f51e0aed184d1c6L |]);
        (0x3fb583357448be50L,
          [| 0x3f94321a10d41c47L; 0x3f8d2496cedefb54L; 0x3f7daf57c65274acL; 0x3f7a1870d3c71da6L; 0x3f7fc517f1da57caL; 0x3f7c9e52f88af490L; 0x3f71eec9d8452c7dL; 0x3f6ae08743ed9bcdL; 0x3f6aa7f55303f661L; 0x3f695f2bc7e7ee3eL; 0x3f611d8ba5e48f10L; 0x3f50b5536b30ba8bL; 0x3f548ac202772a79L; 0x3f583427cf7dd7e3L; 0x3f4eb7441083226bL; 0x3f4e89919804b68cL |]);
        (0x3fb6b84de67c037cL,
          [| 0x3f95b1a35a936d91L; 0x3f8e9d35ddb88b72L; 0x3f838f0d06a164e5L; 0x3f78bffefb40f000L; 0x3f867a8578cf417eL; 0x3f7713c6b0b69a4dL; 0x3f705feb8a3122daL; 0x3f66f132a61d9452L; 0x3f666061ce9b0782L; 0x3f66800f5e6d2173L; 0x3f61477ec43f0402L; 0x3f5a5fc772fa4be7L; 0x3f5870173e7b7c7fL; 0x3f53f84f21b83cc2L; 0x3f465f9e098a2288L; 0x3f50c9fa2d212949L |]);
        (0x3fb20e92c4519c5fL,
          [| 0x3f877342b416dbebL; 0x3f8927333a0f0955L; 0x3f85c548c66ef0e6L; 0x3f7bc1a5349b4232L; 0x3f79c0fb746d25deL; 0x3f731984f9689267L; 0x3f7601ccc45a9fe0L; 0x3f61f10b31c80b11L; 0x3f60082e97187315L; 0x3f60fc387ed99a60L; 0x3f58e81360c9d784L; 0x3f51326eaee2cb65L; 0x3f5302c77ab1ecbbL; 0x3f56f79796e488adL; 0x3f45f88640b8844eL; 0x3f5132e9037e717aL |]);
        (0x3fa76224fb61faa9L,
          [| 0x3f79c99177b1f914L; 0x3f7a9efe12a4a70aL; 0x3f851f0e220e92f6L; 0x3f66ad57e9833afcL; 0x3f6a2ed9547c0fa5L; 0x3f66dfb8ce89bf7eL; 0x3f64999372480eb2L; 0x3f5f113931e77f55L; 0x3f5e47a257778c1cL; 0x3f5c9eb79a90aae6L; 0x3f54858ba9fdf08eL; 0x3f4f720b0caffcacL; 0x3f4f1f6028d2af21L; 0x3f5233f5773e3535L; 0x3f49614c6594a4a9L; 0x3f48a90a442d0dc5L |]) ]);
    ("mobilenet_small",
      [ (0x3f948fdf98e38187L,
          [| 0x3f76a24add5eaf1fL; 0x3f6349fd1e371251L; 0x3f73a72d4081840bL; 0x3f62349e18608c65L; 0x3f50836b19238f62L; 0x3f44c4b6d86bd2a8L; 0x3f524409f13eeefdL; 0x3f51ed98b7b726dbL; 0x3f43dfdd5a10c667L; 0x3f47a7159c603926L |]);
        (0x3fb686d3810b1a9aL,
          [| 0x3fa22cab5ab4bef5L; 0x3f8581194fe9301bL; 0x3f9684936ec00561L; 0x3f80934c02095dc0L; 0x3f6fc01782249d46L; 0x3f5d3fc8c0d46697L; 0x3f66166938212107L; 0x3f5cf3035a26f988L; 0x3f4aa87682434dd8L; 0x3f4ffe153fe2fefcL |]);
        (0x3fa5e78bcd49a447L,
          [| 0x3f8eecfc23e1172bL; 0x3f7928ca590c3e1eL; 0x3f80e33a71ff240aL; 0x3f7338e2f42bbe7bL; 0x3f60276b81cae224L; 0x3f4fbb28efb72ab7L; 0x3f5d612084b8bf67L; 0x3f60ff4b5a066c6fL; 0x3f52b949b3d15841L; 0x3f454746ba94e57eL |]);
        (0x3fad852afd6196e0L,
          [| 0x3f95702b0711f137L; 0x3f83f5c72a033043L; 0x3f878a7d8b784f34L; 0x3f7a8367ce62d910L; 0x3f6a4a243f21202aL; 0x3f5087f539835cc4L; 0x3f5ef15b3c8c362fL; 0x3f57c0fd027f4093L; 0x3f46799a6ebb4446L; 0x3f490f0e4efb655aL |]);
        (0x3f95d744bf5aa2d6L,
          [| 0x3f7403f467b8a53aL; 0x3f6ef6d5b7f63524L; 0x3f73dee674f60089L; 0x3f6247e4e6521d5eL; 0x3f4e4b9d65b90a0cL; 0x3f479a3b2d08d969L; 0x3f5b5dc4ebc0d2cbL; 0x3f546c9bd90bfa32L; 0x3f409675b4ac7a76L; 0x3f40c5c6bbb5eacbL |]) ]);
    ("resnext29",
      [ (0x3fb70c79285e710eL,
          [| 0x3fa8e7437562a169L; 0x3f8e36c3d69ff2f8L; 0x3f88278f9fef2ab5L; 0x3f7b236646a7b72eL; 0x3f6dc1301b4a6981L; 0x3f57aec8b673b038L; 0x3f529a64f802fdb5L; 0x3f518c82766af4ceL; 0x3f4ebb2c8173ac90L |]);
        (0x3fb691de8dcf07ecL,
          [| 0x3fa5d73e4eafb88cL; 0x3f95f64279d01992L; 0x3f823c52422209d5L; 0x3f7cb85b95fe9540L; 0x3f6c938335b9c3d1L; 0x3f585910bfe46260L; 0x3f56f25def5cb719L; 0x3f4a5acbf986cf83L; 0x3f4f8fad008d477aL |]);
        (0x3fbe5c2e70474cd3L,
          [| 0x3faf389ea1a99b7aL; 0x3f9d3f801e5564ddL; 0x3f88c1803956b950L; 0x3f8103476501f0a0L; 0x3f6b98ee252f1017L; 0x3f5fa2e573b77aa0L; 0x3f57e15376bbe68eL; 0x3f51630d1a2d53a4L; 0x3f4b80cd6b0aa5cbL |]);
        (0x3fb1ead537a02b4eL,
          [| 0x3fa0aafb22d4f09dL; 0x3f8f482a1402e44eL; 0x3f81543a901f2b5fL; 0x3f78f746158a10c9L; 0x3f682cb896fe7239L; 0x3f564566b11f2a45L; 0x3f543be4b0076032L; 0x3f506a7facd92725L; 0x3f51506fda376951L |]);
        (0x3fbc400a6ac3290fL,
          [| 0x3fac7dc769846d7eL; 0x3f9a923b2856e510L; 0x3f88254ffa089bfaL; 0x3f8135b34004f81eL; 0x3f6b3dbd0a844672L; 0x3f5f65409d50080aL; 0x3f5810e6841e2957L; 0x3f4e1fea0c6ec656L; 0x3f4e9895db670172L |]) ]);
    ("densenet161",
      [ (0x3fc5915c9bd03d10L,
          [| 0x3f973e5ef63cd858L; 0x3f9b45374d06913dL; 0x3f8b791d8e2ea204L; 0x3f88bb854ad4ce92L; 0x3f88d9eb6879c7b2L; 0x3f81ddb17896be6eL; 0x3f89b2b84a11ab04L; 0x3f85ce86466077c7L; 0x3f810262ead6543aL; 0x3f7beaf9901e6c77L; 0x3f6ebd5b6006181bL; 0x3f68b93c11d15fdbL; 0x3f68cdaa82ef9a98L; 0x3f67c0baafec3ec0L; 0x3f61a05a2a152683L; 0x3f59e4b8df7f785dL; 0x3f613ae139eda221L; 0x3f5bef1540ba5f32L; 0x3f6266c6dd0cf48fL; 0x3f591fb9ceacc89aL; 0x3f555ea0db585507L; 0x3f4e09947561f17dL; 0x3f501e021431ee2dL; 0x3f48234e4e1b5333L; 0x3f43c2af6d8af767L; 0x3f3b09ddf63debe7L; 0x3f37cb3b14ccc897L; 0x3f2e7b9f719736efL; 0x3f3448d8f4a30b08L; 0x3f337d8e8dbcdb8aL; 0x3f2ed8ecf26ca8b3L; 0x3f3102a6e1b54b55L; 0x3f2ee4c8c866ce0cL; 0x3f2fa7bf0d5b87beL; 0x3f2e44d8d29a3c6bL; 0x3f24f7de43578c3aL; 0x3f2823315db797d8L; 0x3f265d1625f87673L; 0x3f29d690645a7c42L; 0x3f236ae92603cb17L; 0x3f265db7090e04f1L; 0x3f24c2b5627aa251L; 0x3f34c0820aa944fdL; 0x3f364c6616f0f58bL; 0x3f27fd9e1672918aL; 0x3f24cd142d213cdeL; 0x3f20bff6acf4c158L; 0x3f20080341623184L; 0x3f11115f7d9beb2aL; 0x3f19a653825ec240L; 0x3f15799adae677d5L; 0x3f1309f273fedd2aL; 0x3f119e29fa58ef27L; 0x3f0f363b3dc1c7d3L; 0x3f0661ecf1bff6a8L; 0x3f130ab0756dc61dL; 0x3f090a832cf4e250L; 0x3f143987babd1cafL |]);
        (0x4002b6734eb8149dL,
          [| 0x3fdad3aa77c346e9L; 0x3fd74d53ff6415a3L; 0x3fd09733b1a6c247L; 0x3fc66a4b29fe57bdL; 0x3fcd27d49c7bfd16L; 0x3fc02a10dcea3d14L; 0x3fc6b7ef003d567dL; 0x3fc1b2086ed924eeL; 0x3fb2be1c1515b324L; 0x3fb1410669bd1f33L; 0x3fa626fdc7fcda92L; 0x3fa03f9a0f621e35L; 0x3fa5b82d64b3bcd1L; 0x3f973ba1d122b4c0L; 0x3f99aedb7875a0caL; 0x3f976d69469253a2L; 0x3f9bf89072222d39L; 0x3f90596c82bf90e8L; 0x3f923639307ab6d1L; 0x3f8b32a93b57d37fL; 0x3f85c36f55f6b71aL; 0x3f73e45ad05c17beL; 0x3f70ef94587b00ddL; 0x3f70a017ec8e410dL; 0x3f6b03f1987c74f7L; 0x3f6487697c73ffb2L; 0x3f623cad1430b9d0L; 0x3f547369c9bc4a69L; 0x3f5d1e54a8f1dbacL; 0x3f5e07475019ecf4L; 0x3f55130f5109cc7fL; 0x3f4e13bc71c9b4dcL; 0x3f5677d0dd4fa2a9L; 0x3f4f74ad8fd842e1L; 0x3f4738884f118d41L; 0x3f3f21c9fdc8b6abL; 0x3f4d63083da07923L; 0x3f46eefd9c0072faL; 0x3f490e42e3bc239aL; 0x3f41177a34d33d1fL; 0x3f40b4c7db217aedL; 0x3f44c3fde126ed6dL; 0x3f42673db9b840f4L; 0x3f32b9bccb72b06cL; 0x3f3a06d694d8a582L; 0x3f33f82e3bef9255L; 0x3f20e04438163022L; 0x3f158207738b1c3eL; 0x3f0d945d65469e8fL; 0x3f10e766d1400e27L; 0x3f1623ad463cab08L; 0x3f1400efc8c15d2cL; 0x3f10c49c342c289cL; 0x3f0b3fe12b1131c2L; 0x3f0f2d9915ba8594L; 0x3f1170e05d4906b9L; 0x3efe0eb031b5da60L; 0x3efe340ef4d9ef78L |]);
        (0x3fe0513e14c1119eL,
          [| 0x3fbd0323c4e55493L; 0x3fb2ab1f128fa8a2L; 0x3fab41e1de38c34aL; 0x3fab0fd8415f7ec8L; 0x3fa00f923a2e0429L; 0x3f9c2f1f4d59a834L; 0x3f9d97b24db3babbL; 0x3f94a62d8d7010ceL; 0x3f91b2c862f0f273L; 0x3f8ab0b1fe1e67f0L; 0x3f8702980d5a49b3L; 0x3f7e61eb467f5addL; 0x3f7dac515ada69a9L; 0x3f725feafdddf7e3L; 0x3f780d25fad19891L; 0x3f72165ef68e84baL; 0x3f773d3b857ba656L; 0x3f74d8b54fe5c5a4L; 0x3f726c0153bb1aa2L; 0x3f6eab2c3ba033feL; 0x3f67a1611db2d38aL; 0x3f5cde22a7b18f51L; 0x3f606bcc35a64e77L; 0x3f6079da14b119f5L; 0x3f4fc0fa6b42757fL; 0x3f495701fc1951edL; 0x3f4f4b7ab36c420fL; 0x3f451513caea24c7L; 0x3f47aaa980256dc2L; 0x3f4344863efe1136L; 0x3f47ab03e017a9ccL; 0x3f4028148e2d00c0L; 0x3f3bf7a96f23e945L; 0x3f3ac6a521472a53L; 0x3f3624ec4b6698dbL; 0x3f376df780944e63L; 0x3f2ac874015abb9bL; 0x3f2db4cf265575f3L; 0x3f31aaeb8cc06ec3L; 0x3f2bfea555e6b8f9L; 0x3f25a8f2233df46bL; 0x3f232cdf9d6add4fL; 0x3f3b307a7109c86eL; 0x3f2ead464807b00aL; 0x3f344ea935ad8c52L; 0x3f3054855f841300L; 0x3f28f8d416187108L; 0x3f29bf3dea894847L; 0x3f2175929e0c481cL; 0x3f14d625f37c64ccL; 0x3f131d9f2683d2e2L; 0x3f130b076140f1caL; 0x3f14857a66ee3dc5L; 0x3f14751b5578cef4L; 0x3f0a9bddebc68666L; 0x3f13050fe56190dcL; 0x3f0ff3399c516aacL; 0x3f07d95770338163L |]);
        (0x3ff5ed29de33913aL,
          [| 0x3fd2e2b925a89760L; 0x3fd0d76735373994L; 0x3fc8c66cdc80d34bL; 0x3fbd8afa884bac05L; 0x3fb0c506dd55701cL; 0x3fb3d68ed31c303cL; 0x3fb3c952f0fae38fL; 0x3fad20294d02ff8cL; 0x3fa59fe35b5317bcL; 0x3fa2f32932570838L; 0x3f95df9de54fafa8L; 0x3f8ed46c6434f85bL; 0x3f8f6020f4e405a9L; 0x3f878ec2d4ab5056L; 0x3f81549bd48c6fb4L; 0x3f7bbceeb809beffL; 0x3f882e68707298d3L; 0x3f7f98f910095e44L; 0x3f90d32d0e49eae7L; 0x3f79a0e611dd715dL; 0x3f6cd8f2f0176b30L; 0x3f6389744d678e90L; 0x3f61bc031d3f9108L; 0x3f59adc4e1661c92L; 0x3f51af51ede9a23eL; 0x3f6a7aa226d726aeL; 0x3f55be13b8534959L; 0x3f49e5769d0629b8L; 0x3f543721c5934888L; 0x3f478047f4e6f10cL; 0x3f4082822d2716acL; 0x3f43a8917bc6f792L; 0x3f43058216d74595L; 0x3f3f6757305b9b80L; 0x3f42c0cb6d38ed51L; 0x3f46896384480f22L; 0x3f2f74af34c7f45cL; 0x3f2abc172e91c794L; 0x3f3c409f0de1cea8L; 0x3f36297efc20071bL; 0x3f41a4c4cfc19c73L; 0x3f47023cfe386ca6L; 0x3f31fb509462e99dL; 0x3f27ffe4bf88784fL; 0x3f2f3017f098f6ddL; 0x3f34571faf254a57L; 0x3f21757eea2554ccL; 0x3f22b4a4280a04bcL; 0x3f25a5813b0fe742L; 0x3f20626fd1725bf0L; 0x3f1a0ce0aa035686L; 0x3f17150cacecee3dL; 0x3f12ae315e89e1daL; 0x3f23d8d5ab8e29a7L; 0x3f0675af613f8adeL; 0x3f1b2c88bcc0bd4aL; 0x3f029bdefc33233bL; 0x3f07f63e9567ef71L |]);
        (0x400fafae84a35d01L,
          [| 0x3fe861f06d668715L; 0x3fe5170771b13da2L; 0x3fe43a92ace60696L; 0x3fd830f23a1bc12bL; 0x3fd6b760206d2b6dL; 0x3fc972a0a75f7030L; 0x3fcb084d12fdd8f3L; 0x3fc8b260cd9a6a2eL; 0x3fbbfb38c53d8929L; 0x3fac9c3dc71b9372L; 0x3fa7f47e2d9428a2L; 0x3fa6e3013a03faaaL; 0x3fa444ebe66bfce0L; 0x3f9de843ccb67337L; 0x3f9cabc53f276c74L; 0x3f8dbb88fb581e6eL; 0x3f97765bae57ee8aL; 0x3f9880ef15b2f749L; 0x3f97893a40334e3eL; 0x3f91c7cce9176c4dL; 0x3f92fdaebcdefd3dL; 0x3f8602ec947ac457L; 0x3f854f07d1a571ddL; 0x3f775f1b20a70b72L; 0x3f80bcec3aed4f84L; 0x3f781df2ae4eac9fL; 0x3f830e48b230590fL; 0x3f70c4c5d399bfc2L; 0x3f6df879484b73afL; 0x3f6f51f2768b8994L; 0x3f72e893f9416b73L; 0x3f685b085091d495L; 0x3f65495e88fb8aa5L; 0x3f6016b8a909fea6L; 0x3f735118106851abL; 0x3f6dfdcf0da33aefL; 0x3f5682347e350f8aL; 0x3f442f0a1010a98eL; 0x3f5baddfb0426012L; 0x3f5166050216a8f2L; 0x3f4e4a944a54d386L; 0x3f45101456aadffbL; 0x3f5f615914f53866L; 0x3f53f920a08e20a6L; 0x3f4d76b25172d1e9L; 0x3f4d6593715de4b6L; 0x3f4954bb3df625c0L; 0x3f501b9045d9f592L; 0x3f4795209cb6aee3L; 0x3f3b1f1cf9df3a2aL; 0x3f32673283987e2bL; 0x3f2d28ebf3681c9cL; 0x3f3668657e7c722bL; 0x3f2baf07d09bd4f6L; 0x3f2514668dbf972fL; 0x3f0ca6cb2e6930ecL; 0x3f288463f2739091L; 0x3f1c430ce291db3eL |]) ]) ]

let check_golden ?arena () =
  List.iter
    (fun (name, expected) ->
      List.iteri
        (fun i ((total, sites), (want_total, want_sites)) ->
          let what = Printf.sprintf "%s candidate %d" name i in
          Alcotest.(check int64) (what ^ " total bits") want_total total;
          Alcotest.(check (array int64)) (what ^ " per-site bits") want_sites sites)
        (List.combine (golden_scores ?arena name) expected))
    golden_bits

let t_golden_bits () = check_golden ()

(* --- the tensor arena ---------------------------------------------------------- *)

(* One arena serves all four golden families in turn, so most buffers a
   pass takes hold stale values of another candidate or family. *)
let t_golden_bits_arena () =
  let arena = Arena.create () in
  check_golden ~arena ();
  Alcotest.(check bool) "buffers were reused" true ((Arena.stats arena).as_reused > 0)

(* Every registered family at [`Search] scale, baseline and two seeded
   candidates, scored through one arena: the bits of the arena-free pass. *)
let t_zoo_arena_bits () =
  let arena = Arena.create () in
  List.iter
    (fun (e : Zoo.entry) ->
      let model, probe = zoo_model e.ze_name in
      List.iteri
        (fun i m ->
          Alcotest.(check (pair int64 (array int64)))
            (Printf.sprintf "%s candidate %d" e.ze_name i)
            (score_bits m probe) (score_bits ~arena m probe))
        (model :: List.map (candidate model) [ 1; 2 ]))
    Zoo.all

let refused f = match f () with _ -> false | exception Invalid_argument _ -> true

(* A nested pass, or a pass from another domain while one is running,
   refuses the busy arena instead of sharing its buffers. *)
let t_arena_busy () =
  let model, probe = zoo_model "mobilenet_small" in
  let arena = Arena.create () in
  Alcotest.(check bool) "nested use refused" true
    (refused (fun () -> Arena.scoped arena (fun () -> Fisher.score ~arena model probe)));
  let entered = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Arena.scoped arena (fun () ->
            Atomic.set entered true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let concurrent =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set release true;
        Domain.join holder)
      (fun () -> refused (fun () -> Fisher.score ~arena model probe))
  in
  Alcotest.(check bool) "concurrent use refused" true concurrent;
  Alcotest.(check (pair int64 (array int64))) "usable after both refusals"
    (score_bits model probe) (score_bits ~arena model probe)

(* A pass that raises half way (here: a label outside the logits, after
   the whole forward pass has taken its buffers) still resets the arena,
   and the next pass through it is bit-identical. *)
let t_arena_raise () =
  let model, probe = zoo_model "resnet18" in
  let arena = Arena.create () in
  let bad = { probe with Train.labels = Array.map (fun _ -> 1_000_000) probe.labels } in
  (match Fisher.score ~arena model bad with
  | _ -> Alcotest.fail "a label outside the logits must raise"
  | exception Invalid_argument msg when msg <> "" -> ());
  Alcotest.(check bool) "the failed pass took buffers" true ((Arena.stats arena).as_fresh > 0);
  Alcotest.(check (pair int64 (array int64))) "next pass"
    (score_bits model probe) (score_bits ~arena model probe)

(* After a pass the arena holds exactly that pass's buffers: a small pass
   after a large one leaves what the small pass alone leaves. *)
let t_arena_footprint () =
  let large, large_probe = zoo_model "mobilenet_small" in
  let small, small_probe = zoo_model "resnet18" in
  let bytes passes =
    let arena = Arena.create () in
    List.iter (fun (m, p) -> ignore (Fisher.score ~arena m p)) passes;
    (Arena.stats arena).as_bytes
  in
  let large_only = bytes [ (large, large_probe) ] in
  let small_only = bytes [ (small, small_probe) ] in
  let both = bytes [ (large, large_probe); (small, small_probe) ] in
  Alcotest.(check bool) "the large pass holds more" true (large_only > small_only);
  Alcotest.(check int) "large then small holds the small pass" small_only both

(* Allocation gate: a Fisher pass through a warm arena allocates at most
   2 MB (the arena-free pass allocates tens of MB) and takes no fresh
   arena buffer.  Allocation counts are deterministic, so this catches a
   kernel that boxes its floats or takes a fresh buffer again without
   depending on timing.  [Gc.allocated_bytes] adds the minor heap's words
   only at a minor collection, so one runs before and after the pass. *)
let t_arena_alloc_gate () =
  List.iter
    (fun name ->
      let model, probe = zoo_model name in
      let arena = Arena.create () in
      ignore (Fisher.score ~arena model probe);
      let fresh = (Arena.stats arena).as_fresh in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      ignore (Fisher.score ~arena model probe);
      Gc.minor ();
      let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
      if mb > 2.0 then Alcotest.failf "%s: a warm pass allocated %.2f MB" name mb;
      Alcotest.(check int) (name ^ ": fresh arena buffers in a warm pass") fresh
        (Arena.stats arena).as_fresh)
    [ "resnet18"; "mobilenet_small" ]

(* The activation-only sweep that [Fisher.score] runs gives every node at
   or after the earliest scored node bitwise the activation gradient of the
   full [Graph.backward], and never touches a parameter gradient. *)
let t_activation_only_backward () =
  let bits t = Array.map Int64.bits_of_float (Tensor.data t) in
  List.iter
    (fun name ->
      let model, probe = zoo_model name in
      List.iter
        (fun m ->
          let g = m.Models.graph in
          let pass () =
            let run = Graph.forward g probe.Train.images in
            let _, loss_grad =
              Ops.softmax_cross_entropy ~logits:(Graph.output run) ~labels:probe.labels
            in
            (run, loss_grad)
          in
          let earliest = Array.fold_left min max_int m.Models.fisher_node_ids in
          let act, loss_grad = pass () in
          Graph.backward_activations g act ~loss_grad ~earliest;
          List.iter
            (fun p ->
              Alcotest.(check bool)
                (name ^ ": " ^ p.Layer.p_name ^ " gradient untouched")
                true
                (Array.for_all (fun x -> x = 0.0) (Tensor.data p.p_grad)))
            (Graph.params g);
          let full, loss_grad = pass () in
          Graph.backward g full ~loss_grad;
          for i = earliest to Graph.node_count g - 1 do
            let grad run =
              match Graph.activation_grad run i with
              | g -> Some (bits g)
              | exception Invalid_argument _ -> None
            in
            Alcotest.(check (option (array int64)))
              (Printf.sprintf "%s: node %d gradient bits" name i)
              (grad full) (grad act)
          done)
        [ model; candidate model 5 ])
    [ "resnet18"; "mobilenet_small"; "densenet161" ]

(* The backward sweep stores each node's first gradient without a copy,
   so it must never hand one tensor to two nodes: an [Add] or [Identity]
   that passed its own gradient on uncopied would let a later
   accumulation change both nodes' scores.  After the Fisher pass (the
   same sweep [Fisher.score] runs, through one arena) no two nodes'
   gradients share a data array, on every zoo family and on NAS-bench
   cells, whose skip edges are the only [Identity] nodes. *)
let t_no_shared_grads () =
  let arena = Arena.create () in
  let check name g ~fisher_nodes (probe : Train.batch) =
    Arena.scoped arena (fun () ->
        let run = Graph.forward ~arena g probe.images in
        let _, loss_grad =
          Ops.softmax_cross_entropy ~logits:(Graph.output run) ~labels:probe.labels
        in
        let earliest = Array.fold_left min max_int fisher_nodes in
        Graph.backward_activations ~arena g run ~loss_grad ~earliest;
        let grads =
          List.filter_map
            (fun i ->
              match Graph.activation_grad run i with
              | t -> Some (i, Tensor.data t)
              | exception Invalid_argument _ -> None)
            (List.init (Graph.node_count g) Fun.id)
        in
        List.iter
          (fun (i, a) ->
            List.iter
              (fun (j, b) ->
                if i < j && a == b then Alcotest.failf "%s: nodes %d and %d share a gradient" name i j)
              grads)
          grads)
  in
  List.iter
    (fun (e : Zoo.entry) ->
      let model, probe = zoo_model e.ze_name in
      List.iter
        (fun m -> check e.ze_name m.Models.graph ~fisher_nodes:m.Models.fisher_node_ids probe)
        [ model; candidate model 1 ])
    Zoo.all;
  let probe = Exp_common.probe_batch (Rng.create 1) ~input_size:8 in
  List.iter
    (fun cell ->
      let net = Nasbench.instantiate (Rng.create 2) cell in
      check
        (Format.asprintf "nasbench %a" Nasbench.pp_cell cell)
        net.Nasbench.nb_graph ~fisher_nodes:net.nb_fisher_nodes probe)
    [ Nasbench.of_index 12345; Array.make 6 Nasbench.Skip ]

(* --- shared layers --------------------------------------------------------- *)

let full_impls model = Array.map (fun _ -> Conv_impl.Full) model.Models.sites

(* [cached] holds bit for bit the parameter values of [fresh], and none of
   its parameters carries a gradient. *)
let check_params what cached fresh =
  let bits p = Array.map Int64.bits_of_float (Tensor.data p.Layer.p_value) in
  let pc = Graph.params cached.Models.graph and pf = Graph.params fresh.Models.graph in
  Alcotest.(check int) (what ^ ": parameter count") (List.length pf) (List.length pc);
  List.iter2
    (fun (c : Layer.param) (f : Layer.param) ->
      let what = what ^ ": " ^ c.p_name in
      Alcotest.(check string) (what ^ " name") f.p_name c.p_name;
      Alcotest.(check (array int)) (what ^ " shape") (Tensor.shape f.p_value)
        (Tensor.shape c.p_value);
      Alcotest.(check (array int64)) (what ^ " value bits") (bits f) (bits c);
      Alcotest.(check bool) (what ^ " gradient zero") true
        (Array.for_all (fun x -> x = 0.0) (Tensor.data c.p_grad)))
    pc pf

(* Rebuilding through a layer cache, as the Fisher oracle does, gives the
   fresh rebuild's graph and Fisher bits; after every pass has run, each
   shared parameter still holds its initial value and no gradient, so
   neither the forward pass nor the activation-only backward writes one. *)
let t_shared_layers_match_fresh () =
  List.iter
    (fun (name, _) ->
      let model, probe = zoo_model name in
      let layers = Builder.layer_cache () in
      let built =
        List.mapi
          (fun i impls ->
            let what = Printf.sprintf "%s candidate %d" name i in
            let cached = Models.rebuild ~layers model (Rng.create 1000) impls in
            let fresh = Models.rebuild model (Rng.create 1000) impls in
            Alcotest.(check string) (what ^ " digest") (Models.graph_digest fresh)
              (Models.graph_digest cached);
            Alcotest.(check (pair int64 (array int64))) (what ^ " Fisher bits")
              (score_bits fresh probe) (score_bits cached probe);
            (what, cached, fresh))
          (full_impls model :: List.map (candidate_impls model) [ 1; 2 ])
      in
      List.iter (fun (what, cached, fresh) -> check_params what cached fresh) built;
      let stem (_, m, _) = List.hd (Graph.params m.Models.graph) in
      Alcotest.(check bool) (name ^ ": layers are shared") true
        (stem (List.nth built 0) == stem (List.nth built 1)))
    golden_bits

(* After a whole search, every layer the search's context cached is intact:
   rebuilding through that cache under every implementation any site can
   take (so every cached layer is reached) yields bit for bit the fresh
   rebuild's values, with no gradient. *)
let t_search_leaves_shared_layers_intact () =
  List.iter
    (fun (name, _) ->
      let model, probe = zoo_model name in
      let ctx = Eval_ctx.create () in
      let rng = Rng.create 11 in
      let r =
        Unified_search.search ~candidates:8 ~ctx ~rng:(Rng.copy rng) ~device:Device.i7
          ~probe model
      in
      Alcotest.(check bool) (name ^ ": search completed") true r.Unified_search.r_complete;
      let seed = (Unified_search.fisher_oracle ~ctx rng model probe).fo_seed in
      let options =
        Array.to_list model.Models.sites
        |> List.concat_map (fun site ->
               Conv_impl.all_options site
               @ List.map Sequences.impl
                   (Sequences.standard_menu site @ Sequences.typed_menu site))
        |> List.sort_uniq compare
      in
      List.iter
        (fun o ->
          let impls =
            Array.map
              (fun site -> if Conv_impl.valid site o then o else Conv_impl.Full)
              model.Models.sites
          in
          check_params
            (name ^ " " ^ Conv_impl.to_string o)
            (Models.rebuild ~layers:(Eval_ctx.layer_cache ctx) model (Rng.create seed)
               impls)
            (Models.rebuild model (Rng.create seed) impls))
        options)
    golden_bits

let t_clipped_total () =
  let mk per_site =
    { Fisher.per_site; total = Array.fold_left ( +. ) 0.0 per_site }
  in
  let baseline = mk [| 1.0; 2.0; 3.0 |] in
  let candidate = mk [| 10.0; 1.0; 3.0 |] in
  (* clip: min(10,1) + min(1,2) + min(3,3) = 1 + 1 + 3 = 5 *)
  Alcotest.(check (float 1e-9)) "clipped" 5.0 (Fisher.clipped_total ~baseline candidate);
  Alcotest.(check bool) "5/6 < 0.88: illegal" false
    (Fisher.legal_clipped ~baseline candidate);
  Alcotest.(check bool) "baseline is legal vs itself" true
    (Fisher.legal_clipped ~baseline baseline)

let t_legal_simple () =
  Alcotest.(check bool) "above" true (Fisher.legal ~original:1.0 ~candidate:1.1 ());
  Alcotest.(check bool) "within slack" true (Fisher.legal ~original:1.0 ~candidate:0.96 ());
  Alcotest.(check bool) "below" false (Fisher.legal ~original:1.0 ~candidate:0.5 ())

let t_zeroed_network_scores_lower () =
  (* Grouping damages representational capacity; across the grouping levels
     at least one must measurably lose clipped Fisher Potential against the
     reference with shared weights (individual levels are noisy at this
     scale, so the assertion quantifies over the family). *)
  let model = Models.build (Models.resnet18 ()) (Rng.create 5) in
  let probe = Exp_common.probe_batch (Rng.create 6) ~input_size:16 in
  let full = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  let baseline = Fisher.score (Models.rebuild model (Rng.create 7) full) probe in
  let clipped_ratio g =
    let impls =
      Array.map
        (fun s -> if Conv_impl.valid s (Conv_impl.Grouped g) then Conv_impl.Grouped g else Conv_impl.Full)
        model.Models.sites
    in
    let candidate = Fisher.score (Models.rebuild model (Rng.create 7) impls) probe in
    Fisher.clipped_total ~baseline candidate /. baseline.Fisher.total
  in
  let ratios = List.map clipped_ratio [ 2; 4; 8 ] in
  List.iter
    (fun r -> Alcotest.(check bool) "clipped never exceeds 1" true (r <= 1.0 +. 1e-9))
    ratios;
  Alcotest.(check bool) "some level loses capacity" true
    (List.exists (fun r -> r < 0.95) ratios)

let resnet18_probe = lazy (zoo_model "resnet18")

let impls_of plans = Array.map (fun p -> p.Site_plan.sp_impl) plans

let qcheck_tests =
  let open QCheck in
  [ (* Loop steps change how a network is computed, never what it
       computes: the Fisher memo key rests on this. *)
    Test.make ~name:"loop-only plan edits leave Fisher scores unchanged" ~count:6
      (int_bound 100_000)
      (fun seed ->
        let model, probe = Lazy.force resnet18_probe in
        let r = Rng.create seed in
        let plans = Unified_search.random_plans r model ~mutate_prob:0.5 in
        let loop_edit site (p : Site_plan.t) =
          match
            List.filter
              (fun (q : Site_plan.t) -> q.sp_impl = p.sp_impl && q.sp_name <> p.sp_name)
              (List.map Sequences.plan (Sequences.standard_menu site))
          with
          | [] ->
              Site_plan.make
                ~hints:{ Autotune.h_unroll_co = Some 4; h_spatial_split = Some 2 }
                ~name:(p.sp_name ^ ">unroll(4)") p.sp_impl
          | qs -> Rng.choice_list r qs
        in
        let edited = Array.mapi (fun i p -> loop_edit model.Models.sites.(i) p) plans in
        let bits plans =
          score_bits (Models.rebuild model (Rng.create seed) (impls_of plans)) probe
        in
        Unified_search.plans_signature plans <> Unified_search.plans_signature edited
        && bits plans = bits edited);
    Test.make ~name:"per-site Fisher scores are non-negative" ~count:4 (int_bound 100_000)
      (fun seed ->
        let model, probe = Lazy.force resnet18_probe in
        let plans = Unified_search.random_plans (Rng.create seed) model ~mutate_prob:0.5 in
        let s = Fisher.score (Models.rebuild model (Rng.create seed) (impls_of plans)) probe in
        Array.for_all (fun v -> v >= 0.0) s.Fisher.per_site); Test.make ~name:"clipped total never exceeds baseline total" ~count:100
      (list_of_size (Gen.return 6) (pair (float_bound_exclusive 10.0) (float_bound_exclusive 10.0)))
      (fun pairs ->
        let pairs = List.map (fun (a, b) -> (a +. 0.01, b +. 0.01)) pairs in
        let baseline_arr = Array.of_list (List.map fst pairs) in
        let cand_arr = Array.of_list (List.map snd pairs) in
        let mk per_site = { Fisher.per_site; total = Array.fold_left ( +. ) 0.0 per_site } in
        let baseline = mk baseline_arr in
        Fisher.clipped_total ~baseline (mk cand_arr) <= baseline.Fisher.total +. 1e-9);
    Test.make ~name:"channel score is scale-quadratic" ~count:30
      (pair (int_range 1 3) (float_range 0.5 2.0))
      (fun (c, k) ->
        let r = Rng.create (c * 100) in
        let activation = Tensor.rand_normal r [| 2; c; 3; 3 |] ~mean:0.0 ~std:1.0 in
        let grad = Tensor.rand_normal r [| 2; c; 3; 3 |] ~mean:0.0 ~std:1.0 in
        let base = Fisher.channel_score ~activation ~grad ~channel:0 in
        let scaled =
          Fisher.channel_score ~activation:(Tensor.scale k activation) ~grad ~channel:0
        in
        Float.abs (scaled -. (k *. k *. base)) < 1e-6 *. (1.0 +. Float.abs scaled)) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fisher"
    [ ( "formula",
        [ quick "eq. 4 by hand" t_channel_score_formula;
          quick "batch mean" t_channel_score_batch_mean;
          quick "eq. 5 sums channels" t_layer_score_sums_channels;
          quick "zero gradient" t_zero_grad_zero_score ] );
      ( "network",
        [ quick "per-site scores" t_model_scores_positive;
          quick "deterministic" t_deterministic;
          quick "aggressive grouping scores lower" t_zeroed_network_scores_lower;
          quick "golden score bits" t_golden_bits;
          quick "golden score bits through one arena" t_golden_bits_arena;
          quick "every zoo family: arena bits" t_zoo_arena_bits;
          quick "activation-only backward" t_activation_only_backward;
          quick "no two nodes share a gradient" t_no_shared_grads;
          quick "shared layers match a fresh rebuild" t_shared_layers_match_fresh;
          quick "a search leaves shared layers intact"
            t_search_leaves_shared_layers_intact ] );
      ( "arena",
        [ quick "a busy arena refuses" t_arena_busy;
          quick "a raising pass resets" t_arena_raise;
          quick "holds one pass" t_arena_footprint;
          quick "warm pass allocates <= 2 MB" t_arena_alloc_gate ] );
      ( "legality",
        [ quick "clipped total" t_clipped_total;
          quick "simple threshold" t_legal_simple ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
