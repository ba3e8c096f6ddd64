(** Shared setup for the experiment harnesses.

    Every experiment is deterministic given its seed and runs in one of two
    modes: [Quick] (the default for `dune exec bench/main.exe`; smaller
    candidate pools and training budgets) and [Full] (paper-scale pool
    sizes: 1000 configurations, more cells, longer training).  Set
    [NPTE_MODE=full] to select [Full]. *)

type mode = Quick | Full

val mode_of_env : unit -> mode
(** [Full] when [NPTE_MODE=full] is set, [Quick] otherwise. *)

val mode_name : mode -> string
(** ["quick"] or ["full"], for banners and CSV filenames. *)

val candidates : mode -> int
(** Unified-search pool size (1000 in Full, as in §6). *)

val blockswap_samples : mode -> int
val nasbench_cells : mode -> int
(** Cells sampled for the Figure-3 NAS-Bench-201-like scatter. *)

val train_steps : mode -> int
(** Per-network training budget (steps) for the accuracy experiments. *)

val seeds : mode -> int
(** Independent training seeds per measured point (Figure 9 error bars). *)

val fbnet_rounds : mode -> int
(** Evolution rounds of the simulated FBNet baseline (Figure 7). *)

val fbnet_population : mode -> int
(** Population size of the simulated FBNet baseline (Figure 7). *)

val master_seed : int
(** The one seed every experiment derives its streams from. *)

val cifar_configs : unit -> Models.config list
(** The three CIFAR-10 networks of Figure 4 (search scale). *)

val probe_batch : Rng.t -> input_size:int -> Train.batch
(** The fixed Fisher probe minibatch for a given input size (one per
    experiment, deterministic): {!Job.probe_batch}. *)

val train_data : Rng.t -> input_size:int -> classes:int -> Synthetic_data.t

val section : Format.formatter -> string -> unit
(** Prints a figure/table banner. *)

val pp_us : Format.formatter -> float -> unit
(** Latency in convenient units. *)

val bar : float -> string
(** A crude textual bar for relative-performance "plots". *)
