(* Client-side spans for the traced run, kept in memory and written as one
   Chrome-trace JSON file when the run ends (load it in chrome://tracing or
   Perfetto). Every transaction gets a [txn] span from its due time to its
   final outcome; the calls it makes into the client ([grv], [get],
   [range], [commit]) are child spans with the same transaction id, which
   doubles as the trace row. Times are virtual. *)

type span = {
  name : string;
  txn : int;
  t0 : float;
  t1 : float;
  args : (string * Json.t) list;
}

type mark = { m_name : string; m_time : float; m_args : Json.t }

type t = { mutable spans : span list; mutable marks : mark list }

let create () = { spans = []; marks = [] }
let add t ?(args = []) ~name ~txn ~t0 ~t1 () = t.spans <- { name; txn; t0; t1; args } :: t.spans

(* A point-in-time snapshot (role CPU, registry) at a phase boundary. *)
let mark t ~name ~time args = t.marks <- { m_name = name; m_time = time; m_args = args } :: t.marks

(* Self time of each transaction: its [txn] span minus the time covered by
   its child spans, i.e. the client-side queueing and retry backoff the
   calls into the client do not account for. A transaction's children are
   sequential and all end before the [txn] span does, so one pass in
   completion order suffices. *)
let self_times t =
  let covered : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  let selfs = Samples.create () in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt covered s.txn) ~default:0.0 in
      if s.name = "txn" then begin
        Samples.add selfs (Float.max 0.0 (s.t1 -. s.t0 -. c));
        Hashtbl.remove covered s.txn
      end
      else Hashtbl.replace covered s.txn (c +. (s.t1 -. s.t0)))
    (List.rev t.spans);
  selfs

let us x = Printf.sprintf "%.3f" (x *. 1e6)

let write t path =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  List.iter
    (fun m ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf "{\"name\":%s,\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%s,\"pid\":1,\"tid\":0,\"args\":%s}"
           (Json.to_string (Json.Str m.m_name))
           (us m.m_time) (Json.to_string m.m_args)))
    (List.rev t.marks);
  List.iter
    (fun s ->
      sep ();
      let args =
        Json.Obj
          ((("txn", Json.Num (float_of_int s.txn))
           :: (if s.name = "txn" then [] else [ ("parent", Json.Str "txn") ]))
          @ s.args)
      in
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":%s}"
           s.name (us s.t0) (us (s.t1 -. s.t0)) s.txn (Json.to_string args)))
    (List.rev t.spans);
  Buffer.add_string b "\n]}\n";
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
