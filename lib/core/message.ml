type key_range = string * string

(* A key selector, wire form (paper §2.2 / the FDB bindings' KeySelector).
   Resolution: find the last key [<= sel_key] (or [< sel_key] when
   [sel_or_equal] is false), then move [sel_offset] keys forward in key
   order. The client decomposes resolution into per-shard walks. *)
type key_selector = { sel_key : string; sel_or_equal : bool; sel_offset : int }

type client_mutation =
  | Plain of Fdb_kv.Mutation.t
  | Versionstamped_key of { template : string; offset : int; value : string }
  | Versionstamped_value of { key : string; template : string; offset : int }

type txn_request = {
  tr_read_version : Types.version;
  tr_reads : key_range list;
  tr_writes : key_range list;
  tr_mutations : client_mutation list;
}

type resolver_verdict = V_commit | V_conflict | V_too_old

type coordinated_state = {
  cs_epoch : Types.epoch;
  cs_logs : (int * int) list;
  cs_log_replication : int;
  cs_recovery_version : Types.version;
  cs_rv_history : (Types.epoch * Types.version) list;
}

let encode_coordinated_state (cs : coordinated_state) = Marshal.to_string cs []

let decode_coordinated_state s =
  match (Marshal.from_string s 0 : coordinated_state) with
  | cs -> Some cs
  | exception _ -> None

type tagged_mutation = { tm_tags : Types.tag list; tm_mutation : Fdb_kv.Mutation.t }

type log_entry = {
  le_lsn : Types.version;
  le_prev : Types.version;
  le_kcv : Types.version;
  le_payload : tagged_mutation list;
}

type t =
  | Ok_reply
  | Reject of Error.t
  | Paxos_req of Fdb_paxos.Wire.request
  | Paxos_resp of Fdb_paxos.Wire.response
  | Recruit_sequencer of { rs_ratekeeper : int option; rs_cc : int }
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
  | Cc_get_state
  | Cc_state of {
      st_epoch : Types.epoch;
      st_proxies : int list;
      st_logs : (int * int) list;
      st_recovered : bool;
      st_dd : int option; (* DataDistributor worker, when recruited *)
    }
  | Seq_ping
  | Seq_pong of {
      sp_epoch : Types.epoch;
      sp_recovered : bool;
      sp_proxies : int list;
      sp_logs : (int * int) list;
    }
  | Cc_recovered of {
      cr_sequencer : int;
      cr_epoch : Types.epoch;
      cr_proxies : int list;
      cr_logs : (int * int) list;
    }
  | Proxy_retire of { pr_epoch : Types.epoch }
  | Grv_req
  | Grv_reply of { gv_version : Types.version; gv_epoch : Types.epoch }
  | Commit_req of txn_request
  | Commit_reply of Types.version
  | Seq_grv
  | Seq_grv_reply of { read_version : Types.version; grv_epoch : Types.epoch }
  | Seq_version
  | Seq_version_reply of { version : Types.version; prev : Types.version }
  | Seq_report of { committed : Types.version }
  | Resolve_req of {
      rs_epoch : Types.epoch;
      rs_lsn : Types.version;
      rs_prev : Types.version;
      rs_txns : (Types.version * key_range list * key_range list) array;
    }
  | Resolve_reply of resolver_verdict array
  | Log_push of { lp_epoch : Types.epoch; lp_entry : log_entry }
  | Log_push_ack of { durable_version : Types.version }
  | Log_peek of { tag : Types.tag; from_version : Types.version }
  | Log_peek_reply of {
      pk_entries : (Types.version * Fdb_kv.Mutation.t list) list;
      pk_end : Types.version;
      pk_kcv : Types.version;
    }
  | Log_pop of { tag : Types.tag; up_to : Types.version }
  | Log_lock of { ll_epoch : Types.epoch }
  | Log_lock_reply of {
      lk_kcv : Types.version;
      lk_dv : Types.version;
      lk_entries : log_entry list;
    }
  | Log_seed of { ls_entries : log_entry list }
  | Ss_recover of {
      sr_epoch : Types.epoch;
      sr_rv : Types.version;
      sr_history : (Types.epoch * Types.version) list;
      sr_logs : (int * int) list;
    }
  | Storage_get of { key : string; version : Types.version; rv_epoch : Types.epoch }
  | Storage_get_reply of string option
  | Storage_get_range of {
      gr_from : string;
      gr_until : string;
      gr_version : Types.version;
      gr_limit : int;
      gr_byte_limit : int;
      gr_reverse : bool;
      gr_epoch : Types.epoch;
    }
  | Storage_get_range_reply of {
      rr_rows : (string * string) list;
      rr_more : bool;
          (* true: the reply was cut by the row/byte budget; drain the rest
             of the range with a continuation round-trip *)
    }
  | Rk_get_rate
  | Rk_rate of { tps : float }
  | Ss_stats_req
  | Ss_stats of {
      ss_durable : Types.version;
      ss_lag : float;
    }
  | Ss_fetch_shard of {
      fs_from : string;
      fs_until : string;
      fs_version : Types.version; (* committed snapshot version to fetch at *)
      fs_epoch : Types.epoch;
      fs_sources : int list; (* current team members to fetch from *)
    }
  | Ss_split_point of { spl_from : string; spl_until : string }
  | Ss_split_point_reply of { spl_key : string option }
      (* median-by-bytes key of the range, when one strictly inside exists *)
  | Ss_watch of { w_key : string; w_version : Types.version; w_epoch : Types.epoch }
  | Ss_watch_reply of { wr_fired : bool; wr_version : Types.version }
