type mode = Quick | Full

let mode_of_env () =
  match Sys.getenv_opt "NPTE_MODE" with
  | Some ("full" | "FULL" | "Full") -> Full
  | Some _ | None -> Quick

let mode_name = function Quick -> "quick" | Full -> "full"
let candidates = function Quick -> 120 | Full -> 1000
let blockswap_samples = function Quick -> 60 | Full -> 200
let nasbench_cells = function Quick -> 60 | Full -> 400
let train_steps = function Quick -> 150 | Full -> 300
let seeds = function Quick -> 2 | Full -> 3
let fbnet_rounds = function Quick -> 2 | Full -> 4
let fbnet_population = function Quick -> 3 | Full -> 6
let master_seed = 20210419 (* the conference dates *)

let cifar_configs () =
  [ Models.resnet34 (); Models.resnext29 (); Models.densenet161 () ]

let probe_batch = Job.probe_batch

let train_data rng ~input_size ~classes =
  Synthetic_data.make rng ~classes ~size:input_size ~n:256 ()

let section ppf title =
  Format.fprintf ppf "@.%s@.%s@." title (String.make (String.length title) '=')

let pp_us ppf s =
  if s < 1e-3 then Format.fprintf ppf "%8.1f us" (s *. 1e6)
  else Format.fprintf ppf "%8.2f ms" (s *. 1e3)

let bar speedup =
  let n = max 0 (min 60 (int_of_float (speedup *. 5.0))) in
  String.make n '#'
