(** The connection-serving spine shared by {!Server}, [Pref_router.Router]
    and {!Metrics_http}.

    It owns everything a TCP front-end does that does not depend on
    what answers the requests: bind/listen with SIGPIPE ignored, one
    accept thread that turns connections over [max_connections] away
    with a retriable [ERR busy] and a close, one systhread per accepted
    connection in a registry, the drain protocol behind
    {!stop}/{!request_stop}/{!wait}, and the connection-level counters.

    {!frames} is the wire-protocol connection loop run by both query
    front-ends: read a frame (giving up on a read-timeout tick once the
    listener drains), {!Protocol.parse_request} it ([ERR proto] on a
    malformed payload, the connection lives on), answer [PING] and
    [METRICS] itself, split an [EXPLAIN]-prefixed [QUERY] into an
    explain, hand every other verb to a {!backend}, and map an exception
    the backend raises to an [ERR] frame with {!error_response}.

    Drain: {!stop} stops accepting and calls [on_drain] (end the streams
    that wait for events). Every connection then answers the request it
    has read and leaves: the frame loop reads nothing more, and an idle
    connection notices on its next read-timeout tick. A connection that
    has become a stream ({!Stream}) is not waited for: once it is all
    that is left, its socket is shut down, which also breaks a write
    blocked on a peer that stopped reading. Then every connection thread
    is joined and [on_stop] runs. Idempotent; concurrent callers wait for
    the first one to finish. A peer that stops reading in the middle of
    an ordinary answer holds the drain up until it reads or goes away. *)

(** {1 Counters}

    An event counter is always on (STATS must work with telemetry off)
    and also feeds the same-named {!Pref_obs.Metrics} counter when
    telemetry is enabled. *)

type counter

val bump : counter -> unit

(** {1 Listeners} *)

type t

val bind :
  ?max_connections:int -> name:string -> host:string -> port:int -> unit -> t
(** Bind and listen without accepting yet. [port = 0] picks an ephemeral
    port. Raises [Unix.Unix_error] when the bind fails.

    With [max_connections], a connection beyond that many is turned away
    with a retriable [ERR busy] naming the listener and a close, and the
    listener counts [<name>.accepted], [<name>.active_connections],
    [<name>.connections_rejected] and the [<name>.connections] gauge.
    Without it every connection is admitted and none of these exist.
    [name] also prefixes {!counter}s and [<name>.draining]. *)

val port : t -> int
(** The bound port — the actual one when [port] was 0. *)

val counter : t -> string -> counter
(** [counter t "queries"] registers [<name>.queries] in the listener's
    table; {!counters} lists the table in registration order. *)

val counters : t -> (string * int) list
(** The connection counters (with a connection limit), then every
    counter registered with {!counter}, then [<name>.draining]. *)

val serve :
  ?on_drain:(unit -> unit) ->
  ?on_stop:(unit -> unit) ->
  t ->
  (Unix.file_descr -> unit) ->
  unit
(** Start the accept thread; each admitted connection runs the handler on
    its own thread, which closes the socket when the handler returns. *)

val draining : t -> bool
(** True from the first {!stop} on. *)

val stop : t -> unit
val request_stop : t -> unit
(** Async-signal-safe: flag the listener to drain; {!wait} performs it. *)

val wait : t -> unit
(** Block until stopped, running the drain once {!request_stop} was
    called. *)

(** {1 The wire-protocol loop} *)

type reply =
  | Reply of Protocol.response  (** encode and write this frame *)
  | Sent  (** the backend already wrote the answer frame *)
  | Stream of (unit -> unit)
      (** the backend wrote the answer and the connection turns into a
          one-way stream: run it, then close the connection *)

type 'c backend = {
  open_conn : Unix.file_descr -> 'c;  (** per-connection state *)
  close_conn : 'c -> unit;
  query : 'c -> Protocol.trace option -> string -> reply;
  explain :
    'c -> analyze:bool -> json:bool -> Protocol.trace option -> string -> reply;
  prepare : 'c -> name:string -> string -> unit;
  refine : 'c -> Protocol.trace option -> string -> reply;
  dml :
    'c -> Protocol.trace option -> Protocol.dml_op -> string -> string -> reply;
      (** operation, table, CSV row *)
  subscribe : 'c -> Protocol.trace option -> string -> reply;
  set : 'c -> key:string -> value:string -> (string, string) result;
  stats : 'c -> (string * string) list;
}

val frames : t -> 'c backend -> Unix.file_descr -> unit
(** The connection handler to pass to {!serve}. *)

val error_response : ?trace:Protocol.trace -> exn -> Protocol.response
(** The one exception → [ERR] mapping: parse, translate, exec, check
    (static-analysis rejection), pref (ill-formed term), and internal for
    anything else. *)
