(** Prometheus text exposition for a {!Metrics} registry.

    Renders the registry in the Prometheus text format (version
    0.0.4): the body of the serve daemon's [GET /metrics] endpoint
    ({!Serve.Server}), and a way to eyeball a run's metrics with
    standard tooling:

    - counters become [<name>_total] with a [# TYPE .. counter] line;
    - gauges are emitted as-is;
    - histograms become summaries — [quantile="0.5"/"0.95"/"0.99"]
      series plus [_sum] and [_count] (the registry stores raw
      samples, not fixed buckets, so a summary is the faithful
      rendering).

    Metric names are sanitized to the Prometheus name grammar by
    replacing every byte outside [[a-zA-Z0-9_:]] with an underscore (a
    leading digit is also replaced); an optional [namespace] is
    prefixed as
    [<namespace>_].  Output order is deterministic: counters, gauges,
    then summaries, each sorted by name. *)

val to_string : ?namespace:string -> Metrics.t -> string

val http_response : ?namespace:string -> Metrics.t -> string
(** The exposition wrapped as one complete HTTP/1.0 [200 OK] response
    (correct [Content-Length], [Connection: close]) — everything a
    [GET /metrics] responder needs to write before closing the
    socket. *)
