#pragma once
// The PETSc chat bot (arcs 4-7 of Fig 5, adapted from llmcord in the paper):
//
//  * a developer invokes /reply on a forum post -> the bot builds the
//    conversation context and asks the augmented LLM for a draft,
//  * the draft appears in the post with three buttons: send / discard /
//    revise,
//  * send mails the draft to petsc-users signed by the clicking developer,
//  * discard deletes it, revise regenerates it with developer guidance,
//  * with an ingestor attached, send also feeds the resolved thread into
//    the live knowledge base — the vetting step of the curation loop.
//
// Safety invariant (tested): nothing the LLM wrote ever reaches the mailing
// list without a developer pressing send.

#include <map>
#include <optional>
#include <string>

#include "bots/mail.h"
#include "bots/platform.h"
#include "rag/workflow.h"

namespace pkb::ingest {
class Ingestor;
}

namespace pkb::bots {

/// Outcome of a button press.
enum class ButtonResult {
  Ok,
  UnknownDraft,
  NotADeveloper,
  AlreadyResolved,
};

class ChatBot {
 public:
  /// `service` generates the drafts — either an AugmentedWorkflow directly
  /// (typically the rag+rerank arm) or a serve::Server front end wrapping
  /// one; `list` is where send() posts; `server` hosts the forum channel.
  ChatBot(const rag::QuestionService* service, DiscordServer* server,
          MailingList* list, std::string forum_channel,
          std::string bot_email_address);

  /// A developer invokes /reply on a forum post: build the context from the
  /// post's title and messages, draft a reply, and attach it to the post
  /// with status=draft. Returns the draft message id, or nullopt when the
  /// post is unknown or the invoker is not a developer.
  std::optional<std::uint64_t> handle_reply_command(std::uint64_t post_id,
                                                    std::string_view developer);

  /// Buttons.
  ButtonResult press_send(std::uint64_t draft_id, std::string_view developer);
  ButtonResult press_discard(std::uint64_t draft_id,
                             std::string_view developer);
  /// Revise regenerates the draft including the developer's guidance; the
  /// old draft message is replaced (same post, new message id returned via
  /// `new_draft_id`).
  ButtonResult press_revise(std::uint64_t draft_id, std::string_view developer,
                            std::string_view guidance,
                            std::uint64_t* new_draft_id);

  /// Number of emails this bot has sent to the list.
  [[nodiscard]] std::size_t emails_sent() const { return emails_sent_; }

  /// Close the paper's curation loop: when an ingestor is attached, every
  /// developer-approved send also ingests the resolved Q&A into the live
  /// knowledge base (one new generation per send), so the next question can
  /// retrieve this thread's answer. The ingestor must outlive the bot.
  void attach_ingestor(ingest::Ingestor* ingestor) { ingestor_ = ingestor; }

  /// Resolved threads ingested via the attached ingestor.
  [[nodiscard]] std::size_t threads_ingested() const {
    return threads_ingested_;
  }

 private:
  struct DraftInfo {
    std::uint64_t post_id = 0;
    std::string subject;
    std::string question_context;
    bool resolved = false;  ///< sent or discarded
  };

  [[nodiscard]] std::string build_context(const ForumPost& post) const;
  std::uint64_t attach_draft(std::uint64_t post_id, std::string_view subject,
                             std::string_view context,
                             std::string_view extra_guidance);

  const rag::QuestionService* service_;
  DiscordServer* server_;
  MailingList* list_;
  std::string forum_channel_;
  std::string bot_email_address_;
  std::map<std::uint64_t, DraftInfo> drafts_;  ///< draft message id -> info
  std::size_t emails_sent_ = 0;
  ingest::Ingestor* ingestor_ = nullptr;
  std::size_t threads_ingested_ = 0;
};

}  // namespace pkb::bots
