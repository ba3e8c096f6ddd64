(** Entry points tying the static analyzers to the search stack.

    [candidate] is the pre-Fisher filter used by [Unified_search]: a scan of
    a candidate's per-site plans with {!Conv_impl.valid}, the one statement
    of a neural rewrite's side conditions.  [analyze_model] drives the
    CLI's [--analyze] mode: it runs direction-vector legality, shape
    inference and access bounds checking over every transformable site of
    a model, either for the standard sequence menu or for one explicit
    plan. *)

val conv_dependences : Poly_legality.dependence list
(** The accumulation-order dependences of a convolution ([ci], [kh],
    [kw]). *)

val nest_of_site : Conv_impl.site -> Loop_nest.conv_nest
(** The convolution loop nest of a site (square output plane). *)

val candidate :
  Models.t -> Site_plan.t array -> (int * Diagnostic.t list) option
(** First site (in index order) whose plan's implementation fails
    {!Conv_impl.valid} for the model, with one [illegal-transformation]
    diagnostic naming the implementation and the site; [None] when the
    candidate is clean. *)

type site_report = {
  sr_site : int;  (** site index *)
  sr_label : string;  (** site label *)
  sr_subject : string;  (** what was analyzed: a sequence name or a plan *)
  sr_verdict : Direction.verdict;  (** dependence-direction legality *)
  sr_diags : Diagnostic.t list;  (** shape, lint and bounds findings *)
}

val analyze_plan :
  site:int -> label:string -> Loop_nest.conv_nest -> Plan_lint.step list -> site_report
(** Lint and analyze one explicit plan against a nest's baseline
    schedule. *)

val analyze_model : ?plan:Plan_lint.step list -> Models.t -> site_report list
(** Analyze every site of a model: with [?plan], that plan per site;
    otherwise every chain ({!Sequences.plans}) of the site's standard
    sequence menu.  Both go through {!Plan_types.lint}; a menu chain that
    does not type at the site is one [inapplicable-sequence] warning with
    an [Unknown] verdict. *)

val report_errors : site_report list -> Diagnostic.t list
(** All error findings in a report, including the diagnostics of
    [Illegal] verdicts — nonempty means the CLI should exit non-zero. *)

val pp_report : Format.formatter -> site_report list -> unit
(** Render a report, one block per analyzed subject (inside an open
    vertical box). *)
