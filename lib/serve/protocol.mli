(** The daemon's wire protocol: line-oriented JSON.

    One flat JSON object per line in each direction.  Every request line
    carries an ["op"] field: ["search"] names a workload ([network],
    [device]), a [seed], a [candidates] pool size and the per-request
    robustness knobs ([budget], [deadline_ms], [fault_rate], ...);
    ["ping"], ["stats"] and ["shutdown"] are control lines.  A missing
    [op] or an unrecognized search field is a parse error — a bare [{}]
    or a typo'd key must never default into real work.  Responses are
    discriminated by their ["status"] field: ["ok"] (a search result,
    possibly [degraded] to best-so-far by a deadline), ["overloaded"]
    (admission rejection, with a retry-after hint), ["unavailable"]
    (circuit breaker open), ["error"], ["pong"] and ["stats"].

    Lines are read and written by {!Json}: the reader is strict RFC 8259
    and this module accepts only the protocol's shape on top — flat
    objects of scalars; nested values are a parse error, never undefined
    behavior.  Output is compact, and non-integral numbers are rounded to
    six significant digits.  See DESIGN.md §10 for the grammar. *)

type request = {
  rq_id : string;  (** client-chosen correlation id, echoed in responses *)
  rq_job : Job.t;
      (** the search; parsing rejects what {!Job.validate} rejects.  The
          server supplies the schedule and a missing [strategy] *)
  rq_deadline_ms : float option;  (** per-request deadline (milliseconds) *)
}

val request :
  ?network:string -> ?device:string -> ?candidates:int -> ?seed:int ->
  ?mutate_prob:float -> ?budget:int -> ?deadline_ms:float -> ?fault_rate:float ->
  ?fault_seed:int -> ?workers:int -> ?strategy:Strategy.t -> string -> request
(** [request id]: a {!Job.make} job with its defaults (resnet18 on CPU, 40
    candidates, seed 42, 1 worker, no budget, no faults) and no deadline. *)

type msg =
  | Search of request  (** a search request (["op": "search"]) *)
  | Ping  (** liveness probe *)
  | Stats  (** ask for the server's counter snapshot *)
  | Shutdown  (** drain the queue and exit cleanly *)

val parse : string -> (msg, string) result
(** Parse one request line.  Malformed JSON, non-scalar fields, a
    missing or unknown [op], unrecognized search fields, and
    out-of-range knob values (e.g. [fault_rate] outside [0,1]) all come
    back as [Error] with a one-line reason — the daemon answers them
    with a ["status":"error"] response and keeps serving. *)

val request_to_json : request -> string
(** One request line, ["op": "search"] included (no trailing newline);
    defaulted fields are omitted. *)

type result_payload = {
  rs_id : string;
  rs_best_plan : string;  (** winning per-site plan signature *)
  rs_best_latency_us : float;
  rs_baseline_latency_us : float;
  rs_speedup : float;
  rs_explored : int;
  rs_rejected : int;  (** Fisher-rejected candidates *)
  rs_quarantined : int;  (** candidates that failed and were set aside *)
  rs_evaluated : int;  (** candidates actually processed *)
  rs_complete : bool;  (** false iff stopped early (budget or deadline) *)
  rs_degraded : bool;  (** true iff the deadline degraded it to best-so-far *)
  rs_retries : int;  (** transient-failure retries this request consumed *)
  rs_cache_hits : int;  (** memo hits this session (warm-cache benefit) *)
  rs_wall_ms : float;  (** the search's own wall time ([r_wall_s]) *)
}

type response =
  | Result of result_payload  (** ["status":"ok"] *)
  | Overloaded of { ov_id : string; ov_retry_after_ms : float }
      (** admission rejection: try again after the hinted delay *)
  | Unavailable of { un_id : string; un_reason : string; un_retry_after_ms : float }
      (** refused without queuing, e.g. ["breaker_open"] *)
  | Error_resp of { er_id : string; er_class : string; er_message : string }
      (** the session failed; [er_class] is a {!Nas_error.class_name} or
          ["bad-request"] / ["shutting-down"] / ["internal"] *)
  | Pong  (** answer to {!Ping} *)
  | Stats_resp of (string * float) list  (** counter snapshot, sorted *)

val response_to_json : response -> string
(** One response line (no trailing newline). *)

val response_of_json : string -> (response, string) result
(** Parse one response line (for clients, tests and the bench). *)
