(* Prometheus text exposition (format version 0.0.4) for a Metrics
   registry.

   Counters gain the conventional [_total] suffix; histograms are
   rendered as summaries (quantile series plus [_sum]/[_count]) since
   the registry keeps raw samples, not fixed buckets.  Metric names
   are sanitized to the Prometheus grammar (letters, digits,
   underscore, colon; no leading digit) by mapping every other byte to
   an underscore. *)

let sanitize name =
  let ok_first c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  let s =
    String.mapi
      (fun i c -> if (if i = 0 then ok_first c else ok c) then c else '_')
      name
  in
  if String.equal s "" then "_" else s

let number v =
  if Float.is_nan v then "NaN"
  else if Float.equal v Float.infinity then "+Inf"
  else if Float.equal v Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let to_string ?(namespace = "") m =
  let buf = Buffer.create 1024 in
  let prefix =
    if String.equal namespace "" then "" else sanitize namespace ^ "_"
  in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, v) ->
      let p = prefix ^ sanitize name ^ "_total" in
      line "# TYPE %s counter\n" p;
      line "%s %d\n" p v)
    (Metrics.counters_list m);
  List.iter
    (fun (name, v) ->
      let p = prefix ^ sanitize name in
      line "# TYPE %s gauge\n" p;
      line "%s %s\n" p (number v))
    (Metrics.gauges_list m);
  List.iter
    (fun name ->
      match Metrics.summary m name with
      | None -> ()
      | Some s ->
          let p = prefix ^ sanitize name in
          line "# TYPE %s summary\n" p;
          line "%s{quantile=\"0.5\"} %s\n" p (number s.Metrics.p50);
          line "%s{quantile=\"0.95\"} %s\n" p (number s.Metrics.p95);
          line "%s{quantile=\"0.99\"} %s\n" p (number s.Metrics.p99);
          line "%s_sum %s\n" p (number s.Metrics.sum);
          line "%s_count %d\n" p s.Metrics.count)
    (Metrics.histogram_names m);
  Buffer.contents buf

let http_response ?namespace m =
  let body = to_string ?namespace m in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body
