#pragma once
// The observability contract's stable identifiers: every metric name and
// span name used by the instrumentation, in one place. Instrumented code
// refers to these constants, never to string literals, so that
// scripts/check_docs.sh can verify each name is documented in
// docs/OBSERVABILITY.md (the ctest `check_docs` target). Names here are
// append-only — see the stability promise in that document.

#include <string_view>

namespace pkb::obs {

// --- counters -------------------------------------------------------------
inline constexpr std::string_view kWorkflowRequestsTotal =
    "pkb_workflow_requests_total";
inline constexpr std::string_view kRetrieveRequestsTotal =
    "pkb_retrieve_requests_total";
inline constexpr std::string_view kRetrieveCandidatesTotal =
    "pkb_retrieve_candidates_total";
inline constexpr std::string_view kRerankRequestsTotal =
    "pkb_rerank_requests_total";
inline constexpr std::string_view kRerankCandidatesTotal =
    "pkb_rerank_candidates_total";
inline constexpr std::string_view kEmbedBatchDocsTotal =
    "pkb_embed_batch_docs_total";
inline constexpr std::string_view kVectordbSearchesTotal =
    "pkb_vectordb_searches_total";
inline constexpr std::string_view kAnnSearchesTotal = "pkb_ann_searches_total";
inline constexpr std::string_view kLlmRequestsTotal = "pkb_llm_requests_total";
inline constexpr std::string_view kLlmModeTotal = "pkb_llm_mode_total";
inline constexpr std::string_view kLlmPromptTokensTotal =
    "pkb_llm_prompt_tokens_total";
inline constexpr std::string_view kLlmCompletionTokensTotal =
    "pkb_llm_completion_tokens_total";
inline constexpr std::string_view kBotsMessagesTotal =
    "pkb_bots_messages_total";
inline constexpr std::string_view kBotsRepliesTotal = "pkb_bots_replies_total";
inline constexpr std::string_view kBotsButtonPressesTotal =
    "pkb_bots_button_presses_total";
inline constexpr std::string_view kServeRequestsTotal =
    "pkb_serve_requests_total";
inline constexpr std::string_view kServeRejectedTotal =
    "pkb_serve_rejected_total";
inline constexpr std::string_view kSessionTurnsTotal =
    "pkb_session_turns_total";
inline constexpr std::string_view kSessionShedTotal =
    "pkb_session_shed_total";
inline constexpr std::string_view kSessionCreatedTotal =
    "pkb_session_created_total";
inline constexpr std::string_view kSessionEvictedTotal =
    "pkb_session_evicted_total";
inline constexpr std::string_view kSessionDedupDroppedTotal =
    "pkb_session_dedup_dropped_total";
inline constexpr std::string_view kSessionMemoryInvalidationsTotal =
    "pkb_session_memory_invalidations_total";
inline constexpr std::string_view kSessionHistoryContextsTotal =
    "pkb_session_history_contexts_total";
inline constexpr std::string_view kIngestBuildsTotal =
    "pkb_ingest_builds_total";
inline constexpr std::string_view kIngestDocsTotal = "pkb_ingest_docs_total";
inline constexpr std::string_view kIngestChunksTotal =
    "pkb_ingest_chunks_total";
inline constexpr std::string_view kIngestRefitsTotal =
    "pkb_ingest_refits_total";
inline constexpr std::string_view kResilienceFaultsInjectedTotal =
    "pkb_resilience_faults_injected_total";
inline constexpr std::string_view kResilienceRetriesTotal =
    "pkb_resilience_retries_total";
inline constexpr std::string_view kResilienceHedgesTotal =
    "pkb_resilience_hedges_total";
inline constexpr std::string_view kResilienceHedgeWinsTotal =
    "pkb_resilience_hedge_wins_total";
inline constexpr std::string_view kResilienceBreakerTransitionsTotal =
    "pkb_resilience_breaker_transitions_total";
inline constexpr std::string_view kResilienceBreakerShortCircuitsTotal =
    "pkb_resilience_breaker_short_circuits_total";
inline constexpr std::string_view kResilienceDegradedTotal =
    "pkb_resilience_degraded_total";
inline constexpr std::string_view kResilienceDeadlineExceededTotal =
    "pkb_resilience_deadline_exceeded_total";
inline constexpr std::string_view kResilienceIngestAbortsTotal =
    "pkb_resilience_ingest_aborts_total";
inline constexpr std::string_view kReplayRecordsTotal =
    "pkb_replay_records_total";
inline constexpr std::string_view kReplayRecordBytesTotal =
    "pkb_replay_record_bytes_total";
inline constexpr std::string_view kReplaySampledOutTotal =
    "pkb_replay_sampled_out_total";
inline constexpr std::string_view kReplayReplaysTotal =
    "pkb_replay_replays_total";
inline constexpr std::string_view kReplayStagesRunTotal =
    "pkb_replay_stages_run_total";
inline constexpr std::string_view kReplayStagesSkippedTotal =
    "pkb_replay_stages_skipped_total";
inline constexpr std::string_view kReplayDiffsTotal =
    "pkb_replay_diffs_total";

// --- gauges ---------------------------------------------------------------
inline constexpr std::string_view kAnnIndexEntries = "pkb_ann_index_entries";
inline constexpr std::string_view kAnnGraphEdges = "pkb_ann_graph_edges";
inline constexpr std::string_view kServeQueueDepth = "pkb_serve_queue_depth";
inline constexpr std::string_view kServeWorkers = "pkb_serve_workers";
inline constexpr std::string_view kServeInflight = "pkb_serve_inflight";
inline constexpr std::string_view kSessionActive = "pkb_session_active";
inline constexpr std::string_view kSessionQueueDepth =
    "pkb_session_queue_depth";
inline constexpr std::string_view kSessionInflight = "pkb_session_inflight";
inline constexpr std::string_view kKbGeneration = "pkb_kb_generation";
inline constexpr std::string_view kKbChunks = "pkb_kb_chunks";
inline constexpr std::string_view kResilienceBreakerState =
    "pkb_resilience_breaker_state";

// --- histograms (seconds) -------------------------------------------------
inline constexpr std::string_view kWorkflowAskSeconds =
    "pkb_workflow_ask_seconds";
inline constexpr std::string_view kRetrieveRagSeconds =
    "pkb_retrieve_rag_seconds";
inline constexpr std::string_view kRetrieveEmbedSeconds =
    "pkb_retrieve_embed_seconds";
inline constexpr std::string_view kRetrieveSearchSeconds =
    "pkb_retrieve_search_seconds";
inline constexpr std::string_view kRerankSeconds = "pkb_rerank_seconds";
inline constexpr std::string_view kVectordbSearchSeconds =
    "pkb_vectordb_search_seconds";
inline constexpr std::string_view kAnnSearchSeconds = "pkb_ann_search_seconds";
inline constexpr std::string_view kAnnBuildSeconds = "pkb_ann_build_seconds";
inline constexpr std::string_view kEmbedBatchSeconds =
    "pkb_embed_batch_seconds";
inline constexpr std::string_view kLlmSimLatencySeconds =
    "pkb_llm_sim_latency_seconds";
inline constexpr std::string_view kServeRequestSeconds =
    "pkb_serve_request_seconds";
inline constexpr std::string_view kServeQueueWaitSeconds =
    "pkb_serve_queue_wait_seconds";
inline constexpr std::string_view kServePipelineSeconds =
    "pkb_serve_pipeline_seconds";
inline constexpr std::string_view kSessionTurnSeconds =
    "pkb_session_turn_seconds";
inline constexpr std::string_view kSessionQueueWaitSeconds =
    "pkb_session_queue_wait_seconds";
inline constexpr std::string_view kSessionTurnsPerSession =
    "pkb_session_turns_per_session";
inline constexpr std::string_view kKbSwapSeconds = "pkb_kb_swap_seconds";
inline constexpr std::string_view kIngestBuildSeconds =
    "pkb_ingest_build_seconds";
inline constexpr std::string_view kResilienceBudgetSpentSeconds =
    "pkb_resilience_budget_spent_seconds";
inline constexpr std::string_view kResilienceBackoffSeconds =
    "pkb_resilience_backoff_seconds";
inline constexpr std::string_view kReplayRecordSeconds =
    "pkb_replay_record_seconds";
inline constexpr std::string_view kReplayReplaySeconds =
    "pkb_replay_replay_seconds";

// --- span names -----------------------------------------------------------
inline constexpr std::string_view kSpanAsk = "ask";
inline constexpr std::string_view kSpanRetrieve = "retrieve";
inline constexpr std::string_view kSpanEmbedQuery = "embed_query";
inline constexpr std::string_view kSpanVectorSearch = "vector_search";
inline constexpr std::string_view kSpanKeywordAugment = "keyword_augment";
inline constexpr std::string_view kSpanRerank = "rerank";
inline constexpr std::string_view kSpanPromptBuild = "prompt_build";
inline constexpr std::string_view kSpanLlm = "llm";
inline constexpr std::string_view kSpanPostprocess = "postprocess";
inline constexpr std::string_view kSpanHistoryRecord = "history_record";
inline constexpr std::string_view kSpanServeRequest = "serve_request";
inline constexpr std::string_view kSpanSessionTurn = "session_turn";
inline constexpr std::string_view kSpanAdmission = "admission";
inline constexpr std::string_view kSpanIngestBuild = "ingest_build";
inline constexpr std::string_view kSpanKbSwap = "kb_swap";
inline constexpr std::string_view kSpanRetry = "retry";
inline constexpr std::string_view kSpanHedge = "hedge";
inline constexpr std::string_view kSpanBreakerState = "breaker_state";
inline constexpr std::string_view kSpanDegradedAnswer = "degraded_answer";
inline constexpr std::string_view kSpanAnnSearch = "ann_search";
inline constexpr std::string_view kSpanTraceRecord = "trace_record";
inline constexpr std::string_view kSpanReplayStage = "replay_stage";

}  // namespace pkb::obs
