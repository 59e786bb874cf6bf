(* The cluster's RPC vocabulary: every request any role sends, each indexed
   by the type of its answer (like Flow's [RequestStream<Req>] with its
   [ReplyPromise<Rep>], paper §2). A caller of [Context.rpc] gets back
   exactly the answer type its request names, and a role's handler must
   produce it; an error answer is [Error e] (DESIGN.md, "The RPC
   contract"). One closed type keeps the full protocol auditable in one
   place, like FDB's *.actor interface files. *)

type key_range = string * string  (** [\[from, until)] *)

(** A key selector on the wire (the FDB bindings' KeySelector): find the
    last key [<= sel_key] ([< sel_key] when [sel_or_equal] is false), then
    move [sel_offset] keys forward in key order. The client resolves it
    with a sequential walk of {!Storage_get_range} reads whose row budget
    is the keys still needed. *)
type key_selector = { sel_key : string; sel_or_equal : bool; sel_offset : int }

(** A client mutation as submitted to a Proxy; versionstamped operations are
    materialized into plain mutations at commit time (§2.6). *)
type client_mutation =
  | Plain of Fdb_kv.Mutation.t
  | Versionstamped_key of { template : string; offset : int; value : string }
      (** 10 zero bytes at [offset] in [template] are replaced by the
          8-byte commit version + 2-byte batch index *)
  | Versionstamped_value of { key : string; template : string; offset : int }

type txn_request = {
  tr_read_version : Types.version;
  tr_reads : key_range list;  (** read conflict ranges *)
  tr_writes : key_range list;  (** write conflict ranges *)
  tr_mutations : client_mutation list;
}

type resolver_verdict = V_commit | V_conflict | V_too_old

(** What the recovery writes to the coordinators (paper §2.3.4: "the
    configuration of LS is stored in all Coordinators"). *)
type coordinated_state = {
  cs_epoch : Types.epoch;
  cs_logs : (int * int) list;  (** (log id, endpoint) of the current LS *)
  cs_log_replication : int;
  cs_recovery_version : Types.version;
  cs_rv_history : (Types.epoch * Types.version) list;
      (** recent generations' recovery versions, newest first. A storage
          server that slept through several generations must roll back to
          the RV of the {e first} recovery after its own epoch — later RVs
          are higher and would let rolled-back data survive. *)
}

let encode_coordinated_state (cs : coordinated_state) = Marshal.to_string cs []

let decode_coordinated_state s =
  match (Marshal.from_string s 0 : coordinated_state) with
  | cs -> Some cs
  | exception _ -> None

(** A mutation as one LogServer stores it: once, with those of its tags
    (storage servers that apply it) that this LogServer replicates. *)
type tagged_mutation = { tm_tags : Types.tag list; tm_mutation : Fdb_kv.Mutation.t }

(** One logged entry: a commit batch's mutations for one LogServer, in
    commit order (Figure 2). The LogServer derives each tag's stream as a
    view into it. *)
type log_entry = {
  le_lsn : Types.version;
  le_prev : Types.version;
  le_kcv : Types.version;
  le_payload : tagged_mutation list;
}


(** {2 Answer records} *)

(** A read version and the generation that issued it. The sequencer's
    answer to {!Seq_grv} is also the proxy's answer to {!Grv_req}. *)
type read_version = { gv_version : Types.version; gv_epoch : Types.epoch }

(** A commit version and the one before it: the batch's place in the LSN
    chain. *)
type seq_version = { version : Types.version; prev : Types.version }

(** The ClusterController's view of the current generation. *)
type cc_state = {
  st_epoch : Types.epoch;
  st_proxies : int list;
  st_logs : (int * int) list;
  st_recovered : bool;
  st_dd : int option;  (** DataDistributor worker, when recruited *)
}

(** The sequencer's generation, as its ClusterController learns it. *)
type seq_status = {
  sp_epoch : Types.epoch;
  sp_recovered : bool;
  sp_proxies : int list;
  sp_logs : (int * int) list;
}

type peek_reply = {
  pk_entries : (Types.version * Fdb_kv.Mutation.t list) list;
  pk_end : Types.version;  (** caught up through this version *)
  pk_kcv : Types.version;  (** known committed version (durability floor) *)
}

type lock_reply = {
  lk_kcv : Types.version;
  lk_dv : Types.version;
  lk_entries : log_entry list;  (** unpopped durable entries *)
}

type range_reply = {
  rr_rows : (string * string) list;
  rr_more : bool;
      (** the reply was cut by a budget; the caller drains the rest of the
          range with continuation round-trips *)
}

type ss_stats = {
  ss_durable : Types.version;
  ss_lag : float;  (** seconds behind the log stream *)
}

(** [wr_fired = true]: the key changed at [wr_version]. [false]: no change
    observed through [wr_version] — re-register from there. *)
type watch_reply = { wr_fired : bool; wr_version : Types.version }

(** {2 Requests}

    ['r req] is a request whose answer is an ['r]. A [unit req] that is
    sent one-way ({!Context.send}) gets no answer at all. *)

type _ req =
  (* control plane: Paxos / coordinators *)
  | Paxos_req : Fdb_paxos.Wire.request -> Fdb_paxos.Wire.response req
  (* liveness probe ([Context.ping]) of the Ratekeeper, the DataDistributor
     and the storage servers *)
  | Ping : unit req
  | Wait_failure : unit req
      (** a generation's long-poll on a proxy, resolver or LogServer
          ([Context.wait_failure]): held, then answered [Ok] after
          [Params.heartbeat_interval], or [Wrong_epoch] the moment the role
          ends *)
  (* worker agent: each recruit answers with the new role's endpoint *)
  | Recruit_sequencer : {
      rs_ratekeeper : int option;
      rs_cc : int;  (** the recruiting ClusterController's worker endpoint *)
    }
      -> int req
  | Recruit_proxy : {
      rp_epoch : Types.epoch;
      rp_sequencer : int;
      rp_resolvers : (key_range * int) list;
      rp_logs : (int * int) list;
      rp_ratekeeper : int option;
      rp_recovery_version : Types.version;
    }
      -> int req
  | Recruit_resolver : {
      rr_epoch : Types.epoch;
      rr_range : key_range;
      rr_start_lsn : Types.version;
    }
      -> int req
  | Recruit_log : { rl_epoch : Types.epoch; rl_id : int; rl_start_lsn : Types.version } -> int req
  | Recruit_ratekeeper : int req
  | Recruit_data_distributor : int req
  (* cluster controller *)
  | Cc_get_state : { cg_known : Types.epoch } -> cc_state req
      (** a client's long-poll on the ClusterController: answered at once
          when the CC knows a recovered generation other than [cg_known],
          else held like {!Wait_failure} and answered the moment one
          recovers. No generation has epoch [-1], so a snapshot asks
          with that. *)
  | Seq_status : seq_status req
      (** the ClusterController's long-poll on the sequencer: held like
          {!Wait_failure}, and answered with the generation as it stands *)
  | Cc_recovered : {
      cr_sequencer : int;  (** the sequencer's endpoint *)
      cr_epoch : Types.epoch;
      cr_proxies : int list;
      cr_logs : (int * int) list;
    }
      -> unit req
      (** one-way, sequencer -> ClusterController: this generation has
          recovered (the CC need not wait for its next probe) *)
  | Proxy_retire : { pr_epoch : Types.epoch } -> unit req
      (** one-way, ClusterController -> proxy: the generation [pr_epoch]
          has ended; die now and release every waiter *)
  (* client <-> proxy *)
  | Grv_req : read_version req
  | Commit_req : txn_request -> Types.version req  (** the commit version *)
  (* proxy <-> sequencer *)
  | Seq_grv : read_version req
  | Seq_version : seq_version req
  | Seq_report : { committed : Types.version } -> unit req
  (* proxy <-> resolver *)
  | Resolve_req : {
      rs_epoch : Types.epoch;
      rs_lsn : Types.version;
      rs_prev : Types.version;
      rs_txns : (Types.version * key_range list * key_range list) array;
          (** per txn: read version, read ranges, write ranges (clipped to
              this resolver's key partition) *)
    }
      -> resolver_verdict array req
  (* proxy <-> log server: the answer is the log's durable version *)
  | Log_push : { lp_epoch : Types.epoch; lp_entry : log_entry } -> Types.version req
  (* storage <-> log server *)
  | Log_peek : { tag : Types.tag; from_version : Types.version } -> peek_reply req
  | Log_pop : { tag : Types.tag; up_to : Types.version } -> unit req  (** one-way *)
  (* recovery <-> old log servers *)
  | Log_lock : { ll_epoch : Types.epoch } -> lock_reply req
  | Log_seed : { ls_entries : log_entry list } -> unit req
  (* recovery -> storage servers *)
  | Ss_recover : {
      sr_epoch : Types.epoch;
      sr_rv : Types.version;
      sr_history : (Types.epoch * Types.version) list;  (** roll back anything newer *)
      sr_logs : (int * int) list;
    }
      -> unit req
  (* client <-> storage server *)
  | Storage_get : {
      key : string;
      version : Types.version;
      rv_epoch : Types.epoch;
      may_bounce : bool;
          (** a busy server may refuse it at once with [Process_behind]:
              the client has another replica left to try *)
    }
      -> string option req
  | Storage_get_range : {
      gr_from : string;
      gr_until : string;
      gr_version : Types.version;
      gr_limit : int;  (** row budget for this round-trip *)
      gr_byte_limit : int;  (** byte budget (>= 1 row always returned) *)
      gr_reverse : bool;
      gr_epoch : Types.epoch;
    }
      -> range_reply req
  (* ratekeeper: the answer is the transaction budget, in txn/s *)
  | Rk_get_rate : float req
  | Ss_stats_req : ss_stats req
  (* data distributor <-> storage server *)
  | Ss_fetch_shard : {
      fs_from : string;
      fs_until : string;
      fs_version : Types.version;
          (** committed snapshot version to fetch at (the DD's marker-txn
              commit has already pinned it below the readable horizon) *)
      fs_epoch : Types.epoch;
      fs_sources : int list;  (** current team members to fetch from *)
    }
      -> unit req  (** answered once the snapshot is installed *)
  | Ss_split_point : { spl_from : string; spl_until : string } -> string option req
      (** median-by-bytes key of the range, when one strictly inside exists *)
  (* watches (long-poll change notification, the layer ecosystem's
     replacement for client polling) *)
  | Ss_watch : { w_key : string; w_version : Types.version; w_epoch : Types.epoch } -> watch_reply req
      (** register interest in [w_key]: fired as soon as a mutation to it
          applies at a version > [w_version], or not-fired after the
          server's poll window elapses (the client re-registers) *)

(** What travels on the network: a request with the token its typed answer
    (or error) goes back through, or a one-way [unit req]. *)
type envelope =
  | Call : 'r req * ('r, Error.t) result Fdb_sim.Network.reply -> envelope
  | Cast : unit req -> envelope
