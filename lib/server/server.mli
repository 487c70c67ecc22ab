(** The concurrent Preference SQL query server: the local-sessions
    backend of the {!Frame_server} spine.

    The spine owns the listener: accept, the [max_connections] limit
    (excess accepts get a retriable [ERR busy] and a close), one thread
    per connection, the frame loop, [PING]/[METRICS], the exception →
    [ERR] mapping and the drain protocol. This module supplies what
    answers the requests: each connection owns a
    {!Pref_engine.Session.t}; all sessions share the table environment
    (single-row DML writes it back under a lock and fans the change out
    to [SUBSCRIBE] streams) and the process-wide result cache (a session
    opts out with [SET cache off]). QUERY, EXPLAIN, REFINE, DML and the
    SUBSCRIBE setup run on a fixed pool of executor {e domains}, so
    concurrent clients scale across cores while connection threads only
    block on I/O; QUERY / EXPLAIN / REFINE answers are also encoded and
    written there.

    {2 Admission control}

    At most [max_inflight] executor jobs are admitted (queued or
    running) at any time; a request over that bound is rejected
    immediately with a retriable [ERR busy] frame instead of queueing
    unboundedly.

    {2 Deadlines}

    A session's [deadline] knob starts counting at admission, so queue
    wait draws down the same budget as evaluation. On expiry the engine
    degrades — the response is a well-formed [ROWS ... partial] frame
    with the BMO set of the scanned prefix — and never hangs; the
    [server.deadline_exceeded] counter records each degradation.

    {2 Graceful drain}

    {!stop} stops accepting, answers new executor work with a retriable
    [ERR draining], ends the subscription streams (shutting down the
    socket of one blocked on a subscriber that stopped reading), lets
    every connection answer the request it has read, then closes the
    connections and joins all threads and executor domains. Idempotent
    and thread-safe (callable from a signal handler's context via
    {!request_stop}). *)

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_connections : int;
  max_inflight : int;  (** admission bound: queued + running queries *)
  executors : int;  (** executor domains evaluating queries *)
  session_config : Pref_bmo.Engine.config;
      (** initial per-session engine config *)
}

val default_config : config
(** 127.0.0.1:5877, 64 connections, [2 * executors] in-flight queries,
    one executor per recommended domain (capped at 16). *)

type t

val start :
  ?config:config ->
  ?registry:Pref_sql.Translate.registry ->
  env:Pref_sql.Exec.env ->
  unit ->
  t
(** Bind, listen, and spawn the accept thread and executor domains.
    Raises [Unix.Unix_error] when the address cannot be bound. *)

val port : t -> int
(** The bound port — the actual one when [config.port] was 0. *)

val stop : t -> unit
(** Graceful drain (see above); returns once everything is joined. *)

val request_stop : t -> unit
(** Async-signal-safe stop request: flags the server to drain and
    returns immediately. {!wait} then performs and completes the drain. *)

val wait : t -> unit
(** Block until the server has fully stopped (via {!stop} or
    {!request_stop}). *)

val counters : t -> (string * int) list
(** Server-level counters, as [server.*] key/value pairs: accepted and
    active connections, queued and in-flight queries, totals for
    completed queries, busy/draining rejections, degradations
    ([server.deadline_exceeded]), truncations and errors. Always live,
    independent of {!Pref_obs.Control} (the same values also feed
    [server.*] metrics when telemetry is on). *)
