type t = {
  sh_co : int;
  sh_ci : int;
  sh_oh : int;
  sh_ow : int;
  sh_kh : int;
  sh_kw : int;
  sh_groups : int;
}

let of_nest (n : Loop_nest.conv_nest) =
  { sh_co = n.Loop_nest.nc_co;
    sh_ci = n.Loop_nest.nc_ci;
    sh_oh = n.Loop_nest.nc_oh;
    sh_ow = n.Loop_nest.nc_ow;
    sh_kh = n.Loop_nest.nc_kh;
    sh_kw = n.Loop_nest.nc_kw;
    sh_groups = n.Loop_nest.nc_groups }

let extent_of sh = function
  | "co" -> Some sh.sh_co
  | "ci" -> Some sh.sh_ci
  | "oh" -> Some sh.sh_oh
  | "ow" -> Some sh.sh_ow
  | "kh" -> Some sh.sh_kh
  | "kw" -> Some sh.sh_kw
  | _ -> None

let with_extent sh name e =
  match name with
  | "co" -> { sh with sh_co = e }
  | "ci" -> { sh with sh_ci = e }
  | "oh" -> { sh with sh_oh = e }
  | "ow" -> { sh with sh_ow = e }
  | "kh" -> { sh with sh_kh = e }
  | "kw" -> { sh with sh_kw = e }
  | _ -> sh

let apply sh (op : Poly.neural_op) =
  match op with
  | Poly.N_bottleneck { iter; factor } -> (
      if factor <= 1 then
        Error
          (Diagnostic.error ~code:"degenerate-factor"
             "bottleneck factor %d on %s is degenerate (must exceed 1)" factor iter)
      else
        match extent_of sh iter with
        | None ->
            Error
              (Diagnostic.error ~code:"unknown-iterator"
                 "bottleneck names iterator %s, not a convolution dimension" iter)
        | Some e ->
            if e mod factor <> 0 then
              Error
                (Diagnostic.error ~code:"indivisible-extent"
                   "bottleneck factor %d does not divide the %s extent %d" factor iter e)
            else
              let e' = e / factor in
              if (iter = "co" || iter = "ci") && e' mod sh.sh_groups <> 0 then
                Error
                  (Diagnostic.error ~code:"group-divisibility"
                     "bottlenecked %s extent %d is no longer divisible by the group \
                      count %d"
                     iter e' sh.sh_groups)
              else Ok (with_extent sh iter e'))
  | Poly.N_group { factor } ->
      if factor <= 1 then
        Error
          (Diagnostic.error ~code:"degenerate-groups"
             "group count %d is degenerate (must exceed 1)" factor)
      else if sh.sh_co mod factor <> 0 then
        Error
          (Diagnostic.error ~code:"indivisible-channel"
             "group count %d does not divide the output channels %d" factor sh.sh_co)
      else if sh.sh_ci mod factor <> 0 then
        Error
          (Diagnostic.error ~code:"indivisible-channel"
             "group count %d does not divide the input channels %d" factor sh.sh_ci)
      else Ok { sh with sh_groups = sh.sh_groups * factor }
  | Poly.N_depthwise { factor } ->
      if sh.sh_co <> sh.sh_ci then
        Error
          (Diagnostic.error ~code:"depthwise-mismatch"
             "depthwise requires equal channel extents, got co=%d ci=%d" sh.sh_co
             sh.sh_ci)
      else if factor <> sh.sh_co then
        Error
          (Diagnostic.error ~code:"depthwise-mismatch"
             "depthwise factor %d differs from the channel extent %d" factor sh.sh_co)
      else Ok { sh with sh_groups = sh.sh_groups * factor }

let of_log nest ops =
  List.fold_left
    (fun (sh, diags) op ->
      match apply sh op with Ok sh' -> (sh', diags) | Error d -> (sh, diags @ [ d ]))
    (of_nest nest, [])
    ops

let check_schedule nest (s : Poly.t) =
  let sh, diags = of_log nest s.Poly.neural_log in
  let drift =
    List.filter_map
      (fun (name, e) ->
        match extent_of sh name with
        | Some e' when e' <> e && diags = [] ->
            Some
              (Diagnostic.error ~code:"shape-drift"
                 "inferred %s extent %d disagrees with the schedule's domain extent %d"
                 name e' e)
        | _ -> None)
      s.Poly.domain
  in
  diags @ drift

(* Maximum of [((v / div) mod m) * mul] over [v] in [0, extent-1]: division
   by [div] reaches [(extent-1)/div], then the modulus caps at [m-1].  This
   is tight for the digit-positional indices {!Loop_nest.build_index}
   produces, because the divisor range always covers a whole number of
   modulus periods or stays below one. *)
let term_max loops (t : Loop_nest.term) =
  let extent = loops.(t.Loop_nest.t_loop).Loop_nest.ll_extent in
  let reach = (extent - 1) / t.Loop_nest.t_div in
  let v = if t.Loop_nest.t_mod = 0 then reach else min reach (t.Loop_nest.t_mod - 1) in
  v * t.Loop_nest.t_mul

let index_max loops (idx : Loop_nest.index) =
  List.fold_left (fun acc t -> acc + term_max loops t) idx.Loop_nest.i_const
    idx.Loop_nest.terms

let bounds_check (prog : Loop_nest.program) =
  let check what idx numel =
    let hi = index_max prog.Loop_nest.loops idx in
    if hi >= numel then
      [ Diagnostic.error ~code:"out-of-range"
          "%s access reaches flat index %d but the tensor has %d elements" what hi numel ]
    else []
  in
  check "output" prog.Loop_nest.dst prog.Loop_nest.out_numel
  @ check "weight" prog.Loop_nest.acc_w prog.Loop_nest.w_numel
  @ check "input" prog.Loop_nest.acc_i prog.Loop_nest.in_numel

(* Internal consistency of a site record as emitted by the block algebra:
   every check here is independent of the implementation choice, so it
   complements [Conv_impl.valid] (which judges an implementation against an
   assumed-well-formed site). *)
let check_site (site : Conv_impl.site) =
  let ci = site.Conv_impl.in_channels and co = site.Conv_impl.out_channels in
  let g0 = site.Conv_impl.groups in
  let err code fmt = Diagnostic.error ~code fmt in
  (if ci < 1 || co < 1 then
     [ err "degenerate-extent" "site %s has degenerate channels %dx%d"
         site.Conv_impl.site_label ci co ]
   else [])
  @ (if site.Conv_impl.kernel < 1 then
       [ err "degenerate-extent" "site %s has kernel %d" site.Conv_impl.site_label
           site.Conv_impl.kernel ]
     else [])
  @ (if site.Conv_impl.stride < 1 then
       [ err "degenerate-extent" "site %s has stride %d" site.Conv_impl.site_label
           site.Conv_impl.stride ]
     else [])
  @ (if g0 < 1 then
       [ err "degenerate-groups" "site %s has baseline grouping %d"
           site.Conv_impl.site_label g0 ]
     else
       (if ci mod g0 <> 0 then
          [ err "indivisible-channel"
              "site %s: baseline grouping %d does not divide the input channels %d"
              site.Conv_impl.site_label g0 ci ]
        else [])
       @
       if co mod g0 <> 0 then
         [ err "indivisible-channel"
             "site %s: baseline grouping %d does not divide the output channels %d"
             site.Conv_impl.site_label g0 co ]
       else [])
  @
  if site.Conv_impl.stride >= 1
     && (site.Conv_impl.spatial_in < 1
        || site.Conv_impl.spatial_in mod site.Conv_impl.stride <> 0
        || Conv_impl.spatial_out site < 1)
  then
    [ err "indivisible-extent"
        "site %s: stride %d does not tile the %d-wide input plane"
        site.Conv_impl.site_label site.Conv_impl.stride site.Conv_impl.spatial_in ]
  else []
