(* Typed metrics registry: the cluster-wide metrics plane (paper §2.3.1 /
   `fdbcli status`). Every role registers counters, gauges, and log-bucketed
   latency histograms keyed by (role, process, metric). Handles are obtained
   once at role creation and updated on the hot path without hashing.

   All sampling runs on simulated time from the seeded RNG, so a serialized
   dump of the registry is bit-identical across reruns of the same seed —
   the metrics plane doubles as a determinism oracle for the swarm. *)

module Histogram = Fdb_util.Histogram
module Det_tbl = Fdb_util.Det_tbl

(* [Data_distributor] is appended after [Client] so the polymorphic-compare
   key order of every pre-existing role (and thus serialized dumps of runs
   that never recruit a DD metric) is unchanged. *)
type role =
  | Proxy
  | Resolver
  | Log
  | Storage
  | Ratekeeper
  | Sequencer
  | Client
  | Data_distributor
  | Cluster_controller

let role_name = function
  | Proxy -> "proxy"
  | Resolver -> "resolver"
  | Log -> "log"
  | Storage -> "storage"
  | Ratekeeper -> "ratekeeper"
  | Sequencer -> "sequencer"
  | Client -> "client"
  | Data_distributor -> "data_distributor"
  | Cluster_controller -> "cluster_controller"

let all_roles =
  [
    Proxy;
    Resolver;
    Log;
    Storage;
    Ratekeeper;
    Sequencer;
    Client;
    Data_distributor;
    Cluster_controller;
  ]

(* Field order matters: polymorphic compare on [key] orders by role (in
   constructor-declaration order, which matches [all_roles]), then process,
   then metric name — the canonical order every dump uses, supplied for
   free by Det_tbl's key-sorted enumeration. *)
type key = { k_role : role; k_process : int; k_metric : string }

type cell =
  | Counter_cell of int ref
  | Gauge_cell of float ref
  | Hist_cell of Histogram.t

type t = (key, cell) Det_tbl.t

let create () : t = Det_tbl.create ~size:256 ()

(* ---------- write-side handles ---------- *)

type counter = int ref
type gauge = float ref
type timer = Histogram.t

let find_or_add t ~role ~process name make =
  Det_tbl.find_or_add t { k_role = role; k_process = process; k_metric = name } make

let counter t ~role ~process name =
  match find_or_add t ~role ~process name (fun () -> Counter_cell (ref 0)) with
  | Counter_cell r -> r
  | _ -> invalid_arg ("Fdb_obs: metric is not a counter: " ^ name)

let gauge t ~role ~process name =
  match find_or_add t ~role ~process name (fun () -> Gauge_cell (ref 0.0)) with
  | Gauge_cell r -> r
  | _ -> invalid_arg ("Fdb_obs: metric is not a gauge: " ^ name)

let histogram t ~role ~process name =
  match find_or_add t ~role ~process name (fun () -> Hist_cell (Histogram.create ())) with
  | Hist_cell h -> h
  | _ -> invalid_arg ("Fdb_obs: metric is not a histogram: " ^ name)

let incr ?(by = 1) c = c := !c + by
let set_gauge g v = g := v
let observe h v = Histogram.add h v

(* ---------- read side ---------- *)

let counter_value t ~role ~process name =
  match Det_tbl.find_opt t { k_role = role; k_process = process; k_metric = name } with
  | Some (Counter_cell r) -> !r
  | _ -> 0

let gauge_value t ~role ~process name =
  match Det_tbl.find_opt t { k_role = role; k_process = process; k_metric = name } with
  | Some (Gauge_cell r) -> Some !r
  | _ -> None

(* Det_tbl folds in ascending key order; within a fixed (role, metric) that
   is ascending process id, so consing + rev is already sorted. *)
let by_process t ~role name pick =
  Det_tbl.fold
    (fun k cell acc ->
      if k.k_role = role && k.k_metric = name then
        match pick cell with Some v -> (k.k_process, v) :: acc | None -> acc
      else acc)
    t []
  |> List.rev

let counters t ~role name =
  by_process t ~role name (function Counter_cell r -> Some !r | _ -> None)

let gauges t ~role name =
  by_process t ~role name (function Gauge_cell r -> Some !r | _ -> None)

let histograms t ~role name =
  by_process t ~role name (function Hist_cell h -> Some h | _ -> None)

let sum_counter t ~role name =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (counters t ~role name)

(* All cells, in the canonical (role, process, metric) order — exactly
   Det_tbl's key order on [key]. Histograms are returned by reference:
   readers must treat them as read-only. *)
let entries t = Det_tbl.to_sorted_list t

(* ---------- deterministic serialization ---------- *)

let render_float f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%.9g" f

let render_cell = function
  | Counter_cell r -> string_of_int !r
  | Gauge_cell r -> render_float !r
  | Hist_cell h ->
      Printf.sprintf "hist(count=%d,mean=%s,p50=%s,p99=%s,max=%s)"
        (Histogram.count h)
        (render_float (Histogram.mean h))
        (render_float (Histogram.percentile h 50.0))
        (render_float (Histogram.percentile h 99.0))
        (render_float (Histogram.max_value h))

let serialize t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, cell) ->
      Buffer.add_string b
        (Printf.sprintf "%s/%d/%s %s\n" (role_name k.k_role) k.k_process k.k_metric
           (render_cell cell)))
    (entries t);
  Buffer.contents b
