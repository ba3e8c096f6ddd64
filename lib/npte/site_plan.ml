type t = {
  sp_impl : Conv_impl.t;
  sp_hints : Autotune.hints;
  sp_name : string;
}

let baseline = { sp_impl = Conv_impl.Full; sp_hints = Autotune.no_hints; sp_name = "baseline" }

let make ?(hints = Autotune.no_hints) ?name impl =
  let name = match name with Some n -> n | None -> Conv_impl.to_string impl in
  { sp_impl = impl; sp_hints = hints; sp_name = name }

let pp ppf t = Format.pp_print_string ppf t.sp_name
