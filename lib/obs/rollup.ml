(* Roll-up: aggregate the per-process registry into a per-role
   status document in the spirit of FDB's `\xff\xff/status/json` — summed
   counters, min/max gauges, merged latency histograms with percentiles,
   and merged size histograms (those named [*_size], such as batch sizes).
   The document is machine-readable (sorted keys, canonical float rendering),
   so two runs of the same seed serialize to identical bytes. *)

module Histogram = Fdb_util.Histogram
module Det_tbl = Fdb_util.Det_tbl

type lat = {
  l_count : int;
  l_mean : float;
  l_p50 : float;
  l_p99 : float;
  l_max : float;
}

type role_doc = {
  rd_role : string;
  rd_processes : int;
  rd_counters : (string * int) list; (* summed across processes *)
  rd_gauges : (string * (float * float)) list; (* (min, max) across processes *)
  rd_latencies : (string * lat) list; (* merged histograms, in seconds *)
  rd_sizes : (string * lat) list; (* merged histograms named [*_size], in items *)
}

type doc = { d_time : float; d_roles : role_doc list }

let lat_of_hist h =
  {
    l_count = Histogram.count h;
    l_mean = Histogram.mean h;
    l_p50 = Histogram.percentile h 50.0;
    l_p99 = Histogram.percentile h 99.0;
    l_max = Histogram.max_value h;
  }

let snapshot ~now (reg : Registry.t) : doc =
  let all_entries = Registry.entries reg in
  let roles =
    List.filter_map
      (fun role ->
        (* Det_tbl accumulators: enumeration comes out sorted by metric
           name, so the document needs no ad-hoc post-sorts. *)
        let procs : (int, unit) Det_tbl.t = Det_tbl.create () in
        let counters : (string, int) Det_tbl.t = Det_tbl.create () in
        let gauges : (string, float * float) Det_tbl.t = Det_tbl.create () in
        let hists : (string, Histogram.t) Det_tbl.t = Det_tbl.create () in
        List.iter
          (fun ((k : Registry.key), cell) ->
            if k.Registry.k_role = role then begin
              Det_tbl.replace procs k.Registry.k_process ();
              let name = k.Registry.k_metric in
              match cell with
              | Registry.Counter_cell r ->
                  let sum =
                    match Det_tbl.find_opt counters name with Some s -> s | None -> 0
                  in
                  Det_tbl.replace counters name (sum + !r)
              | Registry.Gauge_cell r ->
                  let lo, hi =
                    match Det_tbl.find_opt gauges name with
                    | Some (lo, hi) -> (Float.min lo !r, Float.max hi !r)
                    | None -> (!r, !r)
                  in
                  Det_tbl.replace gauges name (lo, hi)
              | Registry.Hist_cell h ->
                  let dst = Det_tbl.find_or_add hists name Histogram.create in
                  Histogram.merge_into ~dst h
            end)
          all_entries;
        if Det_tbl.length procs = 0 then None
        else
          let sizes, latencies =
            List.partition
              (fun (n, _) -> String.ends_with ~suffix:"_size" n)
              (List.map (fun (n, h) -> (n, lat_of_hist h)) (Det_tbl.to_sorted_list hists))
          in
          Some
            {
              rd_role = Registry.role_name role;
              rd_processes = Det_tbl.length procs;
              rd_counters = Det_tbl.to_sorted_list counters;
              rd_gauges = Det_tbl.to_sorted_list gauges;
              rd_latencies = latencies;
              rd_sizes = sizes;
            })
      Registry.all_roles
  in
  { d_time = now; d_roles = roles }

(* ---------- JSON ---------- *)

let json_float f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "0"
  else
    let s = Printf.sprintf "%.9g" f in
    (* "%.9g" may emit "1e+06": valid JSON. Bare "1" is too. *)
    s

let buf_kv b first key value =
  if not !first then Buffer.add_char b ',';
  first := false;
  Buffer.add_string b (Printf.sprintf "\"%s\":%s" key value)

let json_of_role_doc b (rd : role_doc) =
  Buffer.add_string b (Printf.sprintf "\"%s\":{" rd.rd_role);
  let first = ref true in
  buf_kv b first "processes" (string_of_int rd.rd_processes);
  let obj items render =
    let bb = Buffer.create 128 in
    Buffer.add_char bb '{';
    let f = ref true in
    List.iter
      (fun (name, v) ->
        if not !f then Buffer.add_char bb ',';
        f := false;
        Buffer.add_string bb (Printf.sprintf "\"%s\":%s" name (render v)))
      items;
    Buffer.add_char bb '}';
    Buffer.contents bb
  in
  buf_kv b first "counters" (obj rd.rd_counters string_of_int);
  buf_kv b first "gauges"
    (obj rd.rd_gauges (fun (lo, hi) ->
         Printf.sprintf "{\"min\":%s,\"max\":%s}" (json_float lo) (json_float hi)));
  buf_kv b first "latencies"
    (obj rd.rd_latencies (fun l ->
         Printf.sprintf
           "{\"count\":%d,\"mean_ms\":%s,\"p50_ms\":%s,\"p99_ms\":%s,\"max_ms\":%s}"
           l.l_count
           (json_float (l.l_mean *. 1e3))
           (json_float (l.l_p50 *. 1e3))
           (json_float (l.l_p99 *. 1e3))
           (json_float (l.l_max *. 1e3))));
  buf_kv b first "sizes"
    (obj rd.rd_sizes (fun l ->
         Printf.sprintf "{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s,\"max\":%s}"
           l.l_count (json_float l.l_mean) (json_float l.l_p50) (json_float l.l_p99)
           (json_float l.l_max)));
  Buffer.add_char b '}'

let json_of_doc (d : doc) =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "{\"time\":%s,\"roles\":{" (json_float d.d_time));
  List.iteri
    (fun i rd ->
      if i > 0 then Buffer.add_char b ',';
      json_of_role_doc b rd)
    d.d_roles;
  Buffer.add_string b "}}";
  Buffer.contents b
