(* The four workloads. Each one is chosen to load a different set of
   layers (README.md, "Workloads"): point reads against storage, contended
   writes against the commit path, range scans that bypass the commit path
   entirely, and recoveries. A workload draws every input from the run's
   seed and checks what the system returned. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module H = Harness

(* How long one run measures, in simulated seconds, for a budget of
   [seconds]: sized so that the two loops together take about that long on
   a 2-core x86 box. The ratios are fixed per workload, so a given budget
   always simulates the same work. *)
type plan = {
  warmup : float;  (* before each loop's window *)
  open_s : float;
  closed_s : float;
  faults : int;  (* failover only: faults during the open loop *)
}

type instance = {
  draw : Rng.t -> H.body;
  alongside_open : unit -> unit Future.t;  (* runs next to the open loop *)
  alongside_closed : unit -> unit Future.t;  (* runs next to the closed loop *)
  check : unit -> string list Future.t;  (* problems found; [] when correct *)
  extra : unit -> (string * float) list;  (* workload-specific client metrics *)
}

type t = {
  name : string;
  shards_per_storage : int;
  rate : float;  (* open-loop arrivals per simulated second *)
  clients : int;  (* closed-loop clients *)
  plan : float -> plan;
  value_of : int -> Rng.t -> string;
  start : H.h -> plan -> instance;
}

(* Unrecorded lead-in before each loop's window: 1 s, less for tiny
   budgets. *)
let warmup s = Float.min 1.0 (0.1 *. s)

let nothing () = Future.return ()
let no_extra () = []

(* Point-read [keys] one after another. *)
let rec read_each h txn tx = function
  | [] -> Future.return ()
  | k :: rest ->
      let* _ = H.get h txn tx k in
      read_each h txn tx rest

let plain_value _ rng = H.random_value rng

(* ---------- the paper's 90/10 mix (§5.2) ---------- *)

(* 80% read-only transactions of 10 point reads; 20% of 5 reads and 5
   writes. Keys are uniform over the universe. *)
let oltp_draw h rng : H.body =
  let key () = H.key (Rng.int rng H.universe) in
  if Rng.chance rng 0.2 then begin
    let reads = List.init 5 (fun _ -> key ()) in
    let writes = List.init 5 (fun _ -> (key (), H.random_value rng)) in
    fun txn tx ->
      let* _ = H.grv h txn tx in
      let* () = read_each h txn tx reads in
      List.iter (fun (k, v) -> H.set txn tx k v) writes;
      let* _ = H.commit h txn tx in
      Future.return ()
  end
  else begin
    let reads = List.init 10 (fun _ -> key ()) in
    fun txn tx ->
      let* _ = H.grv h txn tx in
      read_each h txn tx reads
  end

let consistency h =
  let* r = Fdb_workloads.Consistency_check.check h.H.cluster in
  match r with Ok () -> Future.return [] | Error msg -> Future.return [ "consistency: " ^ msg ]

let oltp_90_10 =
  {
    name = "oltp_90_10";
    shards_per_storage = 2;
    rate = 550.0;
    clients = 64;
    plan =
      (fun s ->
        { warmup = warmup s; open_s = 3.3 *. s; closed_s = 1.6 *. s; faults = 0 });
    value_of = plain_value;
    start =
      (fun h _ ->
        {
          draw = oltp_draw h;
          alongside_open = nothing;
          alongside_closed = nothing;
          check = (fun () -> consistency h);
          extra = no_extra;
        });
  }

(* ---------- contended read-modify-writes ---------- *)

(* Even keys carry counters (8 decimal digits, then padding up to the
   usual value size) and are read-modified-written; odd keys take the
   blind writes, so no blind write can clobber a counter. *)
let counter_keys = H.universe / 2
let counter_key i = H.key (2 * i)
let blind_key rng = H.key ((2 * Rng.int rng counter_keys) + 1)

let counter_value i rng =
  if i mod 2 = 0 then "00000000" ^ Rng.alphanum rng (Rng.int rng 93) else H.random_value rng

let counter_of v =
  if String.length v < 8 then None else int_of_string_opt (String.sub v 0 8)

let bump = function
  | Some v -> (
      match counter_of v with
      | Some n -> Printf.sprintf "%08d" (n + 1) ^ String.sub v 8 (String.length v - 8)
      | None -> "corrupt:" ^ v)
  | None -> "missing"

(* Zipf(s) over [n] ranks as a cumulative table, sampled by bisection. *)
let zipf_table n s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw cdf rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let write_contended =
  {
    name = "write_contended";
    shards_per_storage = 2;
    rate = 1380.0;
    clients = 64;
    plan =
      (fun s ->
        { warmup = warmup s; open_s = 1.0 *. s; closed_s = 0.1 *. s; faults = 0 });
    value_of = counter_value;
    start =
      (fun h _ ->
        (* A rank -> counter permutation spreads the hot keys over the
           shards. *)
        let rng = Engine.fork_rng () in
        let perm = Array.init counter_keys Fun.id in
        Rng.shuffle rng perm;
        let cdf = zipf_table counter_keys 0.7 in
        let draw rng : H.body =
          let r1 = zipf_draw cdf rng in
          let rec other () =
            let r = zipf_draw cdf rng in
            if r = r1 then other () else r
          in
          let k1 = counter_key perm.(r1) and k2 = counter_key perm.(other ()) in
          let blind = List.init 6 (fun _ -> (blind_key rng, H.random_value rng)) in
          fun txn tx ->
            let* _ = H.grv h txn tx in
            let* v1 = H.get h txn tx k1 in
            let* v2 = H.get h txn tx k2 in
            H.set txn tx k1 (bump v1);
            H.set txn tx k2 (bump v2);
            List.iter (fun (k, v) -> H.set txn tx k v) blind;
            let* _ = H.commit h txn tx in
            Future.return ()
        in
        (* Each acknowledged commit added 2; a Commit_unknown_result may or
           may not have. *)
        let check () =
          let* sum, bad =
            H.scan_universe h.H.cluster
              (fun (sum, bad) (k, v) ->
                let i = int_of_string (String.sub k 6 10) in
                if i mod 2 <> 0 then (sum, bad)
                else match counter_of v with Some n -> (sum + n, bad) | None -> (sum, bad + 1))
              (0, 0)
          in
          let acked = h.H.st.H.committed and unknown = h.H.st.H.unknown in
          Future.return
            ((if bad > 0 then [ Printf.sprintf "counters: %d unreadable counter values" bad ] else [])
            @
            if sum < 2 * acked || sum > 2 * (acked + unknown) then
              [
                Printf.sprintf "counters: sum %d outside [%d, %d] (%d acked, %d unknown)" sum
                  (2 * acked) (2 * (acked + unknown)) acked unknown;
              ]
            else [])
        in
        {
          draw;
          alongside_open = nothing;
          alongside_closed = nothing;
          check;
          extra = no_extra;
        });
  }

(* ---------- range scans ---------- *)

let scan_rows = 1000

let range_scan =
  {
    name = "range_scan";
    shards_per_storage = 40;
    rate = 70.0;
    clients = 64;
    plan =
      (fun s ->
        { warmup = warmup s; open_s = 4.3 *. s; closed_s = 0.9 *. s; faults = 0 });
    value_of = plain_value;
    start =
      (fun h _ ->
        let problems = ref [] in
        let bad = ref 0 in
        let draw rng : H.body =
          let s = Rng.int rng (H.universe - scan_rows + 1) in
          let from = H.key s and until = H.key (s + scan_rows) in
          fun txn tx ->
            let* _ = H.grv h txn tx in
            let* rows = H.range h txn tx ~from ~until ~limit:scan_rows in
            let rec ascending = function
              | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
              | _ -> true
            in
            let ok =
              List.length rows = scan_rows
              && fst (List.hd rows) = from
              && fst (List.nth rows (scan_rows - 1)) = H.key (s + scan_rows - 1)
              && ascending rows
            in
            if not ok then begin
              incr bad;
              if !problems = [] then
                problems :=
                  [ Printf.sprintf "range: read of [%s, %s) returned %d rows" from until (List.length rows) ]
            end;
            Future.return ()
        in
        {
          draw;
          alongside_open = nothing;
          alongside_closed = nothing;
          check =
            (fun () ->
              Future.return
                (if !bad = 0 then []
                 else Printf.sprintf "range: %d bad reads" !bad :: !problems));
          extra = no_extra;
        });
  }

(* ---------- recoveries ---------- *)

let fault_interval = 8.0
let outage_limit = 60.0

(* Role processes of the current generation: old sequencers are inert, so
   rebooting every live one hits the current one; tlogs carry their epoch
   in their name ("tlog-<epoch>.<id>"). *)
let live cluster prefix =
  Layers.processes cluster
  |> List.filter (fun p -> p.Process.alive && String.starts_with ~prefix p.Process.name)

let current_tlogs cluster =
  let epoch_of p = Scanf.sscanf_opt p.Process.name "tlog-%d.%d%!" (fun e _ -> e) in
  let tlogs = live cluster "tlog-" in
  let newest = List.fold_left (fun a p -> max a (Option.value (epoch_of p) ~default:0)) 0 tlogs in
  List.filter (fun p -> epoch_of p = Some newest) tlogs

let failover =
  {
    name = "failover";
    shards_per_storage = 2;
    rate = 150.0;
    clients = 64;
    plan =
      (fun s ->
        let faults = max 1 (int_of_float (Float.round (1.35 *. s))) in
        {
          warmup = warmup s;
          open_s = fault_interval *. float_of_int faults;
          closed_s = Float.max 2.0 (fault_interval *. float_of_int (faults / 8));
          faults;
        });
    value_of = plain_value;
    start =
      (fun h plan ->
        let cluster = h.H.cluster in
        let rng = Engine.fork_rng () in
        let probe_db = Cluster.client cluster ~name:"bench-probe" in
        let acked = ref [] in
        let outages = ref [] in
        (* Faults not yet followed by a probe write that started after them. *)
        let open_faults = ref [] in
        let probing = ref false in
        (* A one-key write every 100 ms; the first one that starts after a
           fault and is acknowledged ends that fault's outage. It takes a
           read version like any other transaction: a client that only
           ever sends blind writes keeps a stale proxy list after a commit
           times out (only Database_locked makes it refresh), and would
           measure its own handle rather than the cluster. *)
        let rec probe seq =
          if not !probing then Future.return ()
          else begin
            H.within_budget ();
            let started = Engine.now () in
            let k = Printf.sprintf "probe/%08d" seq and v = string_of_int seq in
            let* ok =
              Future.catch
                (fun () ->
                  let tx = Client.begin_tx probe_db in
                  Client.set tx k v;
                  let* _ =
                    Engine.timeout 0.5
                      (let* _ = Client.get_read_version tx in
                       Client.commit tx)
                  in
                  Future.return true)
                (fun _ -> Future.return false)
            in
            if ok then begin
              acked := (k, v) :: !acked;
              let ended, still = List.partition (fun t -> t <= started) !open_faults in
              List.iter (fun t -> outages := (Engine.now () -. t) :: !outages) ended;
              open_faults := still
            end;
            let* () = Engine.sleep 0.1 in
            probe (seq + 1)
          end
        in
        (* [n] faults, the first [first] seconds in and then one every
           [fault_interval], alternating between the sequencer and a
           current-generation tlog. *)
        let faults n ~first ~record =
          let rec go i =
            if i = n then Future.return ()
            else
              let* () = Engine.sleep (if i = 0 then first else fault_interval) in
              let targets =
                if i mod 2 = 0 then live cluster "sequencer"
                else match current_tlogs cluster with p :: _ -> [ p ] | [] -> []
              in
              if record then open_faults := Engine.now () :: !open_faults;
              List.iter (fun p -> Engine.reboot p ~delay:(0.5 +. Rng.float rng 2.0) ()) targets;
              go (i + 1)
          in
          go 0
        in
        (* Probe through the open loop's faults until the last one's outage
           has ended, or for at most [outage_limit]. *)
        let alongside_open () =
          probing := true;
          let p = probe 0 in
          let* () = faults plan.faults ~first:(plan.warmup +. 2.0) ~record:true in
          let give_up = Engine.now () +. outage_limit in
          let rec settle () =
            if !open_faults = [] || Engine.now () > give_up then Future.return ()
            else
              let* () = Engine.sleep 0.1 in
              settle ()
          in
          let* () = settle () in
          probing := false;
          p
        in
        let check () =
          let* () = Engine.sleep 5.0 in
          let* () = Cluster.wait_ready ~timeout:120.0 cluster in
          let* problems = consistency h in
          let* stored =
            Client.run probe_db (fun tx ->
                Client.range_all tx
                  (Range_query.keys ~limit:1_000_000 ~from:"probe/" ~until:"probe0" ()))
          in
          let stored_tbl = Hashtbl.create 1024 in
          List.iter (fun (k, v) -> Hashtbl.replace stored_tbl k v) stored;
          let lost =
            List.filter (fun (k, v) -> Hashtbl.find_opt stored_tbl k <> Some v) !acked
          in
          Future.return
            (problems
            @ (if !open_faults = [] then []
               else
                 [
                   Printf.sprintf "availability: %d outages lasted over %.0f s"
                     (List.length !open_faults) outage_limit;
                 ])
            @
            if lost = [] then []
            else
              [
                Printf.sprintf "durability: %d of %d acknowledged probe writes lost (first: %s)"
                  (List.length lost) (List.length !acked) (fst (List.hd lost));
              ])
        in
        let extra () =
          let s = Samples.create () in
          List.iter (Samples.add s) !outages;
          [
            ("client.outage_p50_s", Samples.percentile s 50.0);
            ("client.outage_max_s", Samples.percentile s 100.0);
            ("client.outage_n", float_of_int (Samples.count s));
          ]
        in
        {
          draw = oltp_draw h;
          alongside_open;
          alongside_closed =
            (fun () ->
              faults
                (int_of_float (plan.closed_s /. fault_interval))
                ~first:(plan.warmup +. 2.0) ~record:false);
          check;
          extra;
        });
  }

let all = [ oltp_90_10; write_contended; range_scan; failover ]
let find name = List.find_opt (fun w -> w.name = name) all
