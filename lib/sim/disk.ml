module Det_tbl = Fdb_util.Det_tbl

type record = ..
type record += Raw of string

type file = {
  mutable records : record list; (* reversed *)
  mutable count : int; (* List.length records *)
  mutable dropped : int; (* records ever removed from the front; never falls *)
  mutable durable : int;
}

type t = {
  seek : float;
  bytes_per_sec : float;
  sync_latency : float;
  files : (string, file) Det_tbl.t;
  mutable busy_until : float;
  mutable written : float;
}

let create ?(seek = 8e-5) ?(bytes_per_sec = 5e8) ?(sync_latency = 3e-4) () =
  {
    seek;
    bytes_per_sec;
    sync_latency;
    files = Det_tbl.create ~size:16 ();
    busy_until = 0.0;
    written = 0.0;
  }

(* FCFS service queue, like Engine.cpu but for the disk spindle. *)
let disk_op t dt =
  let now = Engine.now () in
  let start = if t.busy_until > now then t.busy_until else now in
  let finish = start +. dt in
  t.busy_until <- finish;
  Engine.sleep (finish -. now)

let get_file t name =
  match Det_tbl.find_opt t.files name with
  | Some f -> f
  | None ->
      let f = { records = []; count = 0; dropped = 0; durable = 0 } in
      Det_tbl.add t.files name f;
      f

let transfer t bytes =
  t.written <- t.written +. float_of_int bytes;
  disk_op t (t.seek +. (float_of_int bytes /. t.bytes_per_sec))

let append t name ~bytes record =
  let f = get_file t name in
  f.records <- record :: f.records;
  f.count <- f.count + 1;
  transfer t bytes

let sync t name =
  let f = get_file t name in
  (* The file's end, counted from its first record ever written, so that a
     drop or rewrite while the sync runs does not move it. *)
  let upto = f.dropped + f.count in
  Future.bind (disk_op t t.sync_latency) (fun () ->
      (* Only what was buffered when sync was issued is made durable. *)
      let n = min f.count (upto - f.dropped) in
      if n > f.durable then f.durable <- n;
      Future.return ())

let read_all t name =
  match Det_tbl.find_opt t.files name with
  | None -> Future.return []
  | Some f ->
      let records = List.rev f.records in
      Future.map (disk_op t t.seek) (fun () -> records)

let write_file t name ~bytes record =
  let f = get_file t name in
  f.dropped <- f.dropped + f.count;
  f.records <- [ record ];
  f.count <- 1;
  f.durable <- 0;
  transfer t bytes

let read_file t name =
  let v =
    match Det_tbl.find_opt t.files name with
    | None | Some { records = []; _ } -> None
    | Some { records = r :: _; _ } -> Some r
  in
  Future.map (disk_op t t.seek) (fun () -> v)

let delete t name =
  Det_tbl.remove t.files name;
  disk_op t t.seek

(* Iterate files in name order: the buggified branch draws from the engine
   RNG per unsynced record, so enumeration order is part of the
   deterministic replay contract. *)
let crash t =
  let partial = Buggify.on ~p:0.5 "disk_partial_write" in
  Det_tbl.iter
    (fun _ f ->
      let all = Array.of_list (List.rev f.records) in
      let n = Array.length all in
      let keep = Array.sub all 0 (min f.durable n) |> Array.to_list in
      let survivors =
        if partial && n > f.durable then begin
          (* Unsynced records land out of order: a random subset survives.
             Consumers must detect the resulting gaps via sequence numbers. *)
          let extra = ref [] in
          for i = f.durable to n - 1 do
            if Engine.is_running () && Engine.chance 0.5 then extra := all.(i) :: !extra
          done;
          keep @ List.rev !extra
        end
        else keep
      in
      f.records <- List.rev survivors;
      f.count <- List.length survivors;
      f.durable <- min f.durable f.count)
    t.files

let attach t p = Process.on_reboot p (fun () -> crash t)

let bytes_written t = t.written

let durable_count t name =
  match Det_tbl.find_opt t.files name with None -> 0 | Some f -> f.durable

let drop_prefix t name n =
  match Det_tbl.find_opt t.files name with
  | None -> ()
  | Some f ->
      let n = min n f.count in
      (* records is newest-first: keep the newest (count - n). *)
      let rec take k l = if k = 0 then [] else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl in
      f.records <- take (f.count - n) f.records;
      f.count <- f.count - n;
      f.dropped <- f.dropped + n;
      f.durable <- max 0 (f.durable - n)
