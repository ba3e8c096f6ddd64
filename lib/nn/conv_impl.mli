(** Structural alternatives for a convolution site.

    A network's transformable convolutions are described by {!site} records;
    the search assigns each site an implementation drawn from this type.  The
    classical program transformations (interchange, tiling, unrolling...)
    live in the [Npte] core library and only change the *schedule* of a
    site's loop nest; the constructors here are the *neural* transformations
    (and compositions of both families from §7.3 of the paper) that change
    the computation itself. *)

type site = {
  site_index : int;  (** position in the model's site array *)
  in_channels : int;
  out_channels : int;
  kernel : int;
  stride : int;
  groups : int;  (* baseline grouping of the original convolution *)
  spatial_in : int;  (** square input feature-map extent at this site *)
  site_label : string;
}

type t =
  | Full
      (** the original dense convolution *)
  | Grouped of int
      (** channel grouping with factor G (depthwise when G = C_i = C_o) *)
  | Bottleneck of int
      (** C_o reduced by factor B, restored by a trailing 1x1 convolution *)
  | Depthwise_separable
      (** depthwise k*k followed by pointwise 1x1 *)
  | Spatial_bottleneck of int
      (** §5.3: bottleneck applied to the spatial iterators — implemented as a
          stride-b convolution followed by nearest-neighbour upsampling *)
  | Split_grouped of int * int
      (** §7.3 sequence 3: the output-channel domain is split in two halves
          convolved with different grouping factors and concatenated *)

val pp : Format.formatter -> t -> unit
(** Short human-readable name, e.g. ["grouped(g=4)"]. *)

val to_string : t -> string
(** String form of {!pp}. *)

val spatial_out : site -> int
(** Square output feature-map extent ([spatial_in / stride]). *)

val valid : site -> t -> bool
(** The side conditions of a neural rewrite at the site: divisibility and
    spatial-extent constraints such as the paper's [C mod G = 0] /
    [C_o mod B = 0].  This is the only place they are stated: the search's
    pre-Fisher check ([Static_check.candidate]), the compile pipeline, the
    builder and the sequence menus ([Sequences.valid],
    [Sequences.typed_menu]) all derive from it. *)

val macs : site -> t -> int
(** Multiply-accumulate count of the site under the implementation. *)

val param_count : site -> t -> int
(** Weight count of the site under the implementation (conv weights only). *)

val all_options : site -> t list
(** Every valid implementation for the site (used by the NAS baselines). *)

val reduction_factor : site -> t -> float
(** MAC reduction versus [Full] (>= 1). *)

type workload = {
  w_in_channels : int;
  w_out_channels : int;
  w_kernel : int;
  w_stride : int;
  w_groups : int;
  w_spatial : int;  (** square input extent seen by this convolution *)
  w_label : string;
}
(** One concrete convolution of the realized structure, as consumed by the
    hardware cost model. *)

val workloads : site -> t -> workload list
(** The convolutions that {!Builder.realize_site} materializes for the
    implementation, in execution order. *)

val workload_macs : workload -> int
(** Multiply-accumulates of one workload at batch 1. *)

val workload_out_spatial : workload -> int
(** Square output feature-map extent of a workload. *)

