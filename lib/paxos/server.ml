open Fdb_sim
open Future.Syntax
module Det_tbl = Fdb_util.Det_tbl

type reg_state = {
  mutable promised : Wire.ballot;
  mutable accepted : (Wire.ballot * string) option;
}

type t = {
  disk : Disk.t;
  file : string;
  regs : (string, reg_state) Det_tbl.t;
}

type persisted = (string * (Wire.ballot * (Wire.ballot * string) option)) list

type Disk.record += Registers of persisted

let recover ~disk ~file () =
  let* contents = Disk.read_file disk file in
  let regs = Det_tbl.create ~size:8 () in
  (match contents with
  | None -> ()
  | Some (Registers entries) ->
      List.iter
        (fun (name, (promised, accepted)) -> Det_tbl.replace regs name { promised; accepted })
        entries
  | Some _ -> invalid_arg "Paxos server: not a register file");
  Future.return { disk; file; regs }

(* A ballot is two 8-byte integers. A register is charged its name, its
   promised ballot and any accepted ballot and value. *)
let ballot_bytes = 16

let register_bytes (name, (_, accepted)) =
  String.length name + ballot_bytes
  + match accepted with None -> 0 | Some (_, value) -> ballot_bytes + String.length value

(* Det_tbl.fold is name-sorted, so the persisted image of the register
   file is canonical: two runs of a seed write identical records. *)
let persist t =
  let entries =
    Det_tbl.fold (fun name st acc -> (name, (st.promised, st.accepted)) :: acc) t.regs []
  in
  let bytes = List.fold_left (fun acc r -> acc + register_bytes r) 0 entries in
  let* () = Disk.write_file t.disk t.file ~bytes (Registers entries) in
  Disk.sync t.disk t.file

let get_reg t name =
  match Det_tbl.find_opt t.regs name with
  | Some st -> st
  | None ->
      let st = { promised = Wire.ballot_zero; accepted = None } in
      Det_tbl.add t.regs name st;
      st

let handle t (req : Wire.request) : Wire.response Future.t =
  match req with
  | Wire.Read { reg } ->
      let st = get_reg t reg in
      Future.return (Wire.Read_result { accepted = st.accepted })
  | Wire.Prepare { reg; ballot } ->
      let st = get_reg t reg in
      if Wire.ballot_compare ballot st.promised > 0 then begin
        st.promised <- ballot;
        let* () = persist t in
        Future.return (Wire.Promised { accepted = st.accepted })
      end
      else Future.return (Wire.Nacked { higher = st.promised })
  | Wire.Accept { reg; ballot; value } ->
      let st = get_reg t reg in
      if Wire.ballot_compare ballot st.promised >= 0 then begin
        st.promised <- ballot;
        st.accepted <- Some (ballot, value);
        let* () = persist t in
        Future.return Wire.Accepted
      end
      else Future.return (Wire.Nacked { higher = st.promised })
