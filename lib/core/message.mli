(** The cluster's RPC vocabulary: every message any role sends or receives.

    One closed variant keeps the simulated network monomorphic and makes the
    full protocol auditable in one place (like FDB's *.actor interface
    files). Requests and responses share the type; the RPC layer matches
    them by correlation id. *)

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

val encode_coordinated_state : coordinated_state -> string
val decode_coordinated_state : string -> coordinated_state option

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

type t =
  (* generic *)
  | Ok_reply
  | Reject of Error.t
  (* control plane: Paxos / coordinators *)
  | Paxos_req of Fdb_paxos.Wire.request
  | Paxos_resp of Fdb_paxos.Wire.response
  (* worker agent *)
  | Recruit_sequencer of {
      rs_ratekeeper : int option;
      rs_cc : int;  (** the recruiting ClusterController's worker endpoint *)
    }
  | Recruit_proxy of {
      rp_epoch : Types.epoch;
      rp_sequencer : int;
      rp_resolvers : (key_range * int) list;
      rp_logs : (int * int) list;
      rp_ratekeeper : int option;
      rp_recovery_version : Types.version;
    }
  | Recruit_resolver of {
      rr_epoch : Types.epoch;
      rr_range : key_range;
      rr_start_lsn : Types.version;
    }
  | Recruit_log of { rl_epoch : Types.epoch; rl_id : int; rl_start_lsn : Types.version }
  | Recruit_ratekeeper
  | Recruit_data_distributor
  | Recruited of { endpoint : int }
  (* cluster controller *)
  | Cc_get_state
  | Cc_state of {
      st_epoch : Types.epoch;
      st_proxies : int list;
      st_logs : (int * int) list;
      st_recovered : bool;
      st_dd : int option;  (** DataDistributor worker, when recruited *)
    }
  | Seq_ping
  | Seq_pong of {
      sp_epoch : Types.epoch;
      sp_recovered : bool;
      sp_proxies : int list;
      sp_logs : (int * int) list;
    }
  | Cc_recovered of {
      cr_sequencer : int;  (** the sequencer's endpoint *)
      cr_epoch : Types.epoch;
      cr_proxies : int list;
      cr_logs : (int * int) list;
    }
      (** one-way, sequencer -> ClusterController: this generation has
          recovered (the CC need not wait for its next ping) *)
  | Proxy_retire of { pr_epoch : Types.epoch }
      (** one-way, ClusterController -> proxy: the generation [pr_epoch]
          has ended; die now and release every waiter *)
  (* client <-> proxy *)
  | Grv_req
  | Grv_reply of { gv_version : Types.version; gv_epoch : Types.epoch }
  | Commit_req of txn_request
  | Commit_reply of Types.version  (** commit version; errors come as [Reject] *)
  (* proxy <-> sequencer *)
  | Seq_grv
  | Seq_grv_reply of { read_version : Types.version; grv_epoch : Types.epoch }
  | Seq_version
  | Seq_version_reply of { version : Types.version; prev : Types.version }
  | Seq_report of { committed : Types.version }
  (* proxy <-> resolver *)
  | Resolve_req of {
      rs_epoch : Types.epoch;
      rs_lsn : Types.version;
      rs_prev : Types.version;
      rs_txns : (Types.version * key_range list * key_range list) array;
          (** per txn: read version, read ranges, write ranges (clipped to
              this resolver's key partition) *)
    }
  | Resolve_reply of resolver_verdict array
  (* proxy <-> log server *)
  | Log_push of { lp_epoch : Types.epoch; lp_entry : log_entry }
  | Log_push_ack of { durable_version : Types.version }
  (* storage <-> log server *)
  | Log_peek of { tag : Types.tag; from_version : Types.version }
  | Log_peek_reply of {
      pk_entries : (Types.version * Fdb_kv.Mutation.t list) list;
      pk_end : Types.version;  (** caught up through this version *)
      pk_kcv : Types.version;  (** known committed version (durability floor) *)
    }
  | Log_pop of { tag : Types.tag; up_to : Types.version }
  (* recovery <-> old log servers *)
  | Log_lock of { ll_epoch : Types.epoch }
  | Log_lock_reply of {
      lk_kcv : Types.version;
      lk_dv : Types.version;
      lk_entries : log_entry list;  (** unpopped durable entries *)
    }
  | Log_seed of { ls_entries : log_entry list }
  (* recovery -> storage servers *)
  | Ss_recover of {
      sr_epoch : Types.epoch;
      sr_rv : Types.version;
      sr_history : (Types.epoch * Types.version) list;  (** roll back anything newer *)
      sr_logs : (int * int) list;
    }
  (* client <-> storage server *)
  | Storage_get of { key : string; version : Types.version; rv_epoch : Types.epoch }
  | Storage_get_reply of string option
  | Storage_get_range of {
      gr_from : string;
      gr_until : string;
      gr_version : Types.version;
      gr_limit : int;  (** row budget for this round-trip *)
      gr_byte_limit : int;  (** byte budget (>= 1 row always returned) *)
      gr_reverse : bool;
      gr_epoch : Types.epoch;
    }
  | Storage_get_range_reply of {
      rr_rows : (string * string) list;
      rr_more : bool;
          (** the reply was cut by a budget; the caller drains the rest of
              the range with continuation round-trips *)
    }
  (* ratekeeper *)
  | Rk_get_rate
  | Rk_rate of { tps : float }
  | Ss_stats_req
  | Ss_stats of {
      ss_durable : Types.version;
      ss_lag : float;  (** seconds behind the log stream *)
    }
  (* data distributor <-> storage server *)
  | Ss_fetch_shard of {
      fs_from : string;
      fs_until : string;
      fs_version : Types.version;
          (** committed snapshot version to fetch at (the DD's marker-txn
              commit has already pinned it below the readable horizon) *)
      fs_epoch : Types.epoch;
      fs_sources : int list;  (** current team members to fetch from *)
    }
      (** replied [Ok_reply] once the snapshot is installed *)
  | Ss_split_point of { spl_from : string; spl_until : string }
  | Ss_split_point_reply of { spl_key : string option }
      (** median-by-bytes key of the range, when one strictly inside exists *)
  (* watches (long-poll change notification, the layer ecosystem's
     replacement for client polling) *)
  | Ss_watch of { w_key : string; w_version : Types.version; w_epoch : Types.epoch }
      (** register interest in [w_key]: reply fired as soon as a mutation
          to it applies at a version > [w_version], or not-fired after the
          server's poll window elapses (the client re-registers) *)
  | Ss_watch_reply of { wr_fired : bool; wr_version : Types.version }
      (** [wr_fired = true]: the key changed at [wr_version]. [false]: no
          change observed through [wr_version] — re-register from there *)
