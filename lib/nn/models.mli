(** Model zoo: scaled-down but structurally faithful variants of the network
    families evaluated in the paper, plus the additional families registered
    in {!Zoo}.

    A configuration is a {!Block.spec}; {!build} lowers it through the block
    algebra.  Every model carries the array of its transformable convolution
    {!Conv_impl.site}s.  [build] materializes the computation graph for a
    given per-site implementation assignment; the default assignment is the
    original network ([Full] everywhere). *)

type config = Block.spec
(** A network family description from the block algebra (see {!Zoo} for the
    registry of named presets). *)

val config_name : config -> string
(** The family name carried by the spec. *)

type t = {
  config : config;
  name : string;
  graph : Graph.t;
  sites : Conv_impl.site array;
  impls : Conv_impl.t array;
  fisher_node_ids : int array;
  fixed_workloads : Conv_impl.workload list;
      (** non-transformable convolutions (stem, shortcuts, reductions,
          transitions, squeeze-excite FCs) plus the classifier, for cost
          accounting *)
  num_classes : int;
  input_size : int;
  input_channels : int;
  cost_mult_c : int;
      (** channel multiplier mapping the scaled model back to the original
          network's dimensions, used for hardware-cost accounting *)
  cost_mult_s : int;  (** spatial multiplier, same purpose *)
}

val cost_mults : config -> int * int
(** [(channel, spatial)] cost multipliers of a spec, computed from its
    explicit paper-scale dimensions (see {!Block.cost_mults}). *)

val build :
  ?impls:Conv_impl.t array -> ?layers:Builder.layer_cache -> config -> Rng.t -> t
(** Builds the graph.  [impls], when given, must have one entry per site and
    each entry must be valid for its site.  [layers] shares initialized
    layers with earlier builds through that cache (see {!Builder}); only
    parameter-read-only passes may use such a model. *)

val rebuild : ?layers:Builder.layer_cache -> t -> Rng.t -> Conv_impl.t array -> t
(** Same configuration with a different implementation assignment (fresh
    initialization, as the paper searches at initialization; [layers] as
    in {!build}). *)

val site_count : config -> int
(** Number of transformable sites a build of this config exposes. *)

val forward_logits : t -> Tensor.t -> Tensor.t
(** One forward pass returning the classifier logits. *)

val total_macs : t -> int
(** MACs of one inference at batch 1 under the current assignment. *)

val conv_params : t -> int
(** Convolution + classifier weight count under the current assignment. *)

val all_workloads : t -> Conv_impl.workload list
(** Fixed workloads plus the expansion of every site, in network order. *)

val scale_site : t -> Conv_impl.site -> Conv_impl.site
(** The site at the original (paper-scale) network dimensions: channels
    multiplied by [cost_mult_c], spatial extent by [cost_mult_s]. *)

val cost_workloads : t -> Conv_impl.workload list
(** Like {!all_workloads} but at paper-scale dimensions.  Training and the
    Fisher pass run on the scaled network; hardware-cost accounting uses
    these full-size convolutions so that cache pressure and arithmetic
    intensity match the real workloads. *)

val graph_digest : t -> string
(** Canonical MD5 fingerprint of the built model: per-node structure
    (operator, static parameters, weight shapes, wiring, labels) and
    per-parameter value checksums.  Two builds with identical digests have
    bit-identical graphs; {!Zoo.snapshot}s pin presets to these digests. *)

(** {2 Presets}

    The named presets delegate to the {!Zoo} registry; the functions below
    are kept for the six paper networks used throughout the experiments. *)

(** Presets use a [scale] knob: [`Search] is the default size used by the
    performance experiments (Fisher + cost model only), [`Train] is smaller
    so that full SGD training stays cheap, and [`Imagenet] is the larger
    input / more classes variant used by the Figure 8 experiments. *)
type scale = Block.scale

val resnet18 : ?scale:scale -> unit -> config
(** ResNet-18: basic residual blocks, [2;2;2;2] per stage. *)

val resnet34 : ?scale:scale -> unit -> config
(** ResNet-34: basic residual blocks, [3;4;6;3] per stage. *)

val resnext29 : ?scale:scale -> unit -> config
(** ResNeXt-29 (2x64d): aggregated residual blocks, grouped 3x3s. *)

val densenet161 : ?scale:scale -> unit -> config
(** DenseNet-BC-161: growth 48 at paper scale. *)

val densenet169 : ?scale:scale -> unit -> config
(** DenseNet-BC-169: growth 32 at paper scale. *)

val densenet201 : ?scale:scale -> unit -> config
(** DenseNet-BC-201: growth 32 at paper scale. *)
