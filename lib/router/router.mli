(** The scatter-gather router: one wire-protocol endpoint in front of N
    [prefserve] backends — the scatter-gather backend of the
    {!Pref_server.Frame_server} spine.

    The spine is the one the single server runs on (accept, the
    connection limit, one thread per connection, the frame loop,
    [PING]/[METRICS], the exception → [ERR] mapping, the drain), so
    clients (shell, soak driver, benches) cannot tell the difference
    except for the extra [served=k/n] word on ROWS responses. This
    module answers the remaining verbs, on the connection thread:

    - QUERY over a sharded table: fan the {!Merge}-planned shard
      statement out to every backend in parallel, gather the per-shard
      BMO sets, run the final pass locally, answer one relation.
      Backends that are down, draining, saturated past the retry budget
      or silent past the shard timeout are skipped: the response carries
      [partial] and [served=k/n] instead of failing, as long as at least
      one shard answered. A backend erroring deterministically (parse,
      exec) fails the query — every shard would say the same.
    - QUERY over replicated/unregistered tables: proxied to one healthy
      backend, round-robin.
    - PREPARE is handled entirely at the router (parsed and stored per
      connection; [@name] re-plans the stored statement), so shard
      restarts cannot lose prepared state.
    - SET updates the router-side final-pass config and is forwarded to
      every backend connection, replayed on reconnect; [maxrows] is
      {e not} forwarded — shard-side caps would silently starve the
      final winnow, so the cap applies once, at the final pass.
    - EXPLAIN over a sharded table fans out to the shards, prices the
      scatter-gather plan with {!Pref_bmo.Cost.scatter_gather_ms}
      (slowest shard + per-shard dispatch + final merge) and renders the
      per-shard plans indented underneath.
    - REFINE revises the connection's last answered statement and
      routes it like a QUERY; DML places an insert on the owning shard
      (replicated tables: every shard) and broadcasts a delete; SUBSCRIBE
      subscribes to every shard and streams the diff of the re-winnowed
      union.
    - STATS sums the backends' integer counters under a [shards.]
      prefix, adds per-shard [shard.<i>.up] health, and the router's own
      counters. METRICS answers the router process's registry.

    Backend health: a failed connect or lost response marks the shard
    down with exponential backoff (doubling from
    [config.down_backoff_s], capped at 5 s); the next query after the
    backoff re-probes it. *)

type backend = { bhost : string; bport : int }

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  backends : backend list;  (** shard [i] of [n] is the [i]-th entry *)
  shard_map : Shard_map.t;
  max_connections : int;
  shard_timeout_s : float;
      (** per-shard response budget per request; also bounds the
          busy-retry loop *)
  down_backoff_s : float;  (** initial health backoff after a failure *)
  session_config : Pref_bmo.Engine.config;
      (** final-pass engine config (per connection, mutable via SET) *)
}

val default_config : config
(** No backends — {!start} requires at least one. *)

type t

val start : ?config:config -> ?registry:Pref_sql.Translate.registry -> unit -> t
(** Bind and serve. Raises [Invalid_argument] without backends and
    [Unix.Unix_error] when the bind fails. Backends are dialed lazily,
    per connection, on first use — a backend may come up after the
    router. *)

val port : t -> int

val counters : t -> (string * int) list
(** The router-local counters (no backend round trips):
    [router.queries], [router.scatter], [router.proxied],
    [router.merged], [router.merge_skipped], [router.partial],
    [router.shard_down], [router.errors], [router.backends],
    [router.active_connections], plus [shard.<i>.up] /
    [shard.<i>.failures] per backend. *)

val stop : t -> unit
(** Graceful drain, idempotent: stop accepting, let every connection
    answer the request it has read, end routed subscriptions (shutting
    down the socket of one blocked on a client that stopped reading),
    close the client and backend connections. *)

val request_stop : t -> unit
(** Signal-handler-safe: ask {!wait} to run {!stop}. *)

val wait : t -> unit
