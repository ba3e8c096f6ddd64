type t =
  | Plain_group of int
  | Plain_bottleneck of int
  | Plain_depthwise
  | Seq1 of { g : int; split : int }
  | Seq2 of { g : int; unroll : int }
  | Seq3 of { g1 : int; g2 : int }
  | Spatial_bneck of int

let name = function
  | Plain_group g -> Printf.sprintf "group(G=%d)" g
  | Plain_bottleneck b -> Printf.sprintf "bottleneck(B=%d)" b
  | Plain_depthwise -> "depthwise"
  | Seq1 { g; split } -> Printf.sprintf "seq1[split(%d)>int>group(%d)>int>fuse]" split g
  | Seq2 { g; unroll } -> Printf.sprintf "seq2[unroll(%d)>group(%d)>int]" unroll g
  | Seq3 { g1; g2 } -> Printf.sprintf "seq3[split>group(%d)>int>group(%d)]" g1 g2
  | Spatial_bneck b -> Printf.sprintf "spatial-bottleneck(b=%d)" b

(* The structural rewrite a sequence makes; its loop steps only seed
   autotuner hints (see [plan]). *)
let impl = function
  | Plain_group g | Seq1 { g; _ } | Seq2 { g; _ } -> Conv_impl.Grouped g
  | Plain_bottleneck b -> Conv_impl.Bottleneck b
  | Plain_depthwise -> Conv_impl.Depthwise_separable
  | Seq3 { g1; g2 } -> Conv_impl.Split_grouped (g1, g2)
  | Spatial_bneck b -> Conv_impl.Spatial_bottleneck b

let plan seq =
  let open Autotune in
  let hints =
    match seq with
    | Seq1 { split; _ } -> { no_hints with h_spatial_split = Some split }
    | Seq2 { unroll; _ } -> { no_hints with h_unroll_co = Some unroll }
    | Plain_group _ | Plain_bottleneck _ | Plain_depthwise | Seq3 _ | Spatial_bneck _ ->
        no_hints
  in
  Site_plan.make ~name:(name seq) ~hints (impl seq)

let valid site seq = Conv_impl.valid site (impl seq)

let standard_menu site =
  List.filter (valid site)
    [ Plain_group 2; Plain_group 4; Plain_group 8; Plain_group 16;
      Plain_bottleneck 2;
      Plain_depthwise;
      Seq1 { g = 2; split = 2 }; Seq1 { g = 4; split = 2 };
      Seq2 { g = 2; unroll = 16 }; Seq2 { g = 4; unroll = 16 };
      Seq3 { g1 = 2; g2 = 4 }; Seq3 { g1 = 2; g2 = 8 }; Seq3 { g1 = 4; g2 = 8 };
      Spatial_bneck 2 ]

(* Each family's factors range over the divisors of the extent its rewrite
   divides (a necessary condition of [Conv_impl.valid]), and [valid] keeps
   exactly the admissible ones, so the menu is complete and valid by
   construction.  Only the Seq1 guard is stated here: it is the split
   hint's own condition, not a validity condition. *)
let typed_menu (site : Conv_impl.site) =
  let so = Conv_impl.spatial_out site in
  let over factors family = List.filter (valid site) (List.map family factors) in
  let ci_factors = Divisors.gt1 site.Conv_impl.in_channels in
  let ci_pairs =
    let fs = 1 :: ci_factors in
    List.concat_map
      (fun g1 -> List.filter_map (fun g2 -> if g1 < g2 then Some (g1, g2) else None) fs)
      fs
  in
  over ci_factors (fun g -> Plain_group g)
  @ over (Divisors.gt1 site.Conv_impl.out_channels) (fun b -> Plain_bottleneck b)
  @ List.filter (valid site) [ Plain_depthwise ]
  @ over (Divisors.gt1 so) (fun b -> Spatial_bneck b)
  @ (if so mod 2 = 0 then over ci_factors (fun g -> Seq1 { g; split = 2 }) else [])
  @ over ci_factors (fun g -> Seq2 { g; unroll = 16 })
  @ over ci_pairs (fun (g1, g2) -> Seq3 { g1; g2 })

let is_dominant = function
  | Seq1 _ | Seq2 _ | Seq3 _ -> true
  | Plain_group _ | Plain_bottleneck _ | Plain_depthwise | Spatial_bneck _ -> false

(* The literal §7.3 / §5.3 transformation chains, in the plan language.
   Loop positions are those of the ungrouped baseline [co; ci; oh; ow; kh;
   kw]; after [group] on it, loop 0 is the group slice, the first loop that
   carries [co]. *)
let plans seq nest =
  let open Plan_lint in
  let on nest steps = (Loop_nest.baseline_schedule nest, steps) in
  match seq with
  | Plain_group g -> [ on nest [ Group g ] ]
  | Plain_bottleneck b -> [ on nest [ Bottleneck ("co", b) ] ]
  | Plain_depthwise -> [ on nest [ Depthwise ] ]
  | Seq1 { g; split } ->
      (* split the spatial domain, rotate the chunk loop outermost, group
         the channels, rotate back *)
      [ on nest
          [ Split (2, split); Interchange (1, 2); Interchange (0, 1); Group g;
            Interchange (0, 1) ] ]
  | Seq2 { g; unroll } -> [ on nest [ Group g; Unroll (0, unroll); Interchange (0, 1) ] ]
  | Seq3 { g1; g2 } ->
      (* The output-channel domain is split in two halves, each grouped with
         its own factor; the halves are separate nests over co/2 filters. *)
      let half = { nest with Loop_nest.nc_co = nest.Loop_nest.nc_co / 2 } in
      [ on half [ Group g1 ]; on half [ Group g2 ] ]
  | Spatial_bneck b ->
      (* §5.3: [int -> B(b) -> int -> B(b) -> int]. *)
      [ on nest
          [ Reorder [ 2; 3; 0; 1; 4; 5 ]; Bottleneck ("oh", b); Interchange (0, 1);
            Bottleneck ("ow", b); Reorder [ 2; 3; 1; 0; 4; 5 ] ] ]

let schedules seq nest =
  List.map (fun (base, steps) -> List.fold_left Plan_lint.apply base steps) (plans seq nest)
