(** Minimal HTTP listener serving the metrics registry for scrapers.

    [GET /metrics] answers {!Pref_obs.Export.prometheus} with content
    type [text/plain; version=0.0.4; charset=utf-8]; [GET /metrics.json]
    the JSON snapshot; other paths 404, other methods 405. HTTP/1.0, one
    request per connection, each on its own thread of the
    {!Frame_server} listener the query servers use — without a
    connection limit, so every scrape is served. Started by
    [prefserve --metrics-port]. *)

type t

val start : ?host:string -> port:int -> unit -> t
(** Bind and start the accept thread. [port = 0] picks an ephemeral
    port — read it back with {!port} (the tests do). Raises
    [Unix.Unix_error] when the bind fails. *)

val port : t -> int

val stop : t -> unit
(** Stop accepting and join the threads; idempotent. The accept loop
    polls its stop flag every 0.25 s and a scrape that sends nothing is
    dropped after 1 s, so this returns quickly. *)
