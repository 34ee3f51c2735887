#include "bots/chat_bot.h"

#include <stdexcept>

#include "ingest/ingestor.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pkb::bots {

ChatBot::ChatBot(const rag::QuestionService* service, DiscordServer* server,
                 MailingList* list, std::string forum_channel,
                 std::string bot_email_address)
    : service_(service),
      server_(server),
      list_(list),
      forum_channel_(std::move(forum_channel)),
      bot_email_address_(std::move(bot_email_address)) {
  if (service_ == nullptr || server_ == nullptr || list_ == nullptr) {
    throw std::invalid_argument("ChatBot: null dependency");
  }
}

std::string ChatBot::build_context(const ForumPost& post) const {
  std::string context = "Subject: " + post.title + "\n";
  for (const Message& msg : post.messages) {
    // Skip the bot's own drafts when rebuilding context.
    if (msg.tags.contains("status")) continue;
    context += msg.content;
    context += "\n";
    for (const std::string& attachment : msg.attachments) {
      context += "[attachment: " + attachment + "]\n";
    }
  }
  return context;
}

std::uint64_t ChatBot::attach_draft(std::uint64_t post_id,
                                    std::string_view subject,
                                    std::string_view context,
                                    std::string_view extra_guidance) {
  std::string question(context);
  if (!extra_guidance.empty()) {
    question += "\nDeveloper guidance for the reply: ";
    question += extra_guidance;
  }
  const rag::WorkflowOutcome outcome = service_->answer(question);

  const std::uint64_t draft_id = server_->add_to_post(
      forum_channel_, post_id, "petsc-chatbot",
      outcome.response.text + "\n\n[buttons: send | discard | revise]");
  Message* msg = server_->find_message(forum_channel_, draft_id);
  msg->tags["status"] = "draft";
  obs::global_metrics().counter(obs::kBotsRepliesTotal).inc();

  DraftInfo info;
  info.post_id = post_id;
  info.subject = std::string(subject);
  info.question_context = std::string(context);
  drafts_[draft_id] = std::move(info);
  return draft_id;
}

std::optional<std::uint64_t> ChatBot::handle_reply_command(
    std::uint64_t post_id, std::string_view developer) {
  if (!server_->is_developer(developer)) return std::nullopt;
  const ForumPost* post = server_->post(forum_channel_, post_id);
  if (post == nullptr) return std::nullopt;
  return attach_draft(post_id, post->title, build_context(*post), "");
}

ButtonResult ChatBot::press_send(std::uint64_t draft_id,
                                 std::string_view developer) {
  obs::global_metrics()
      .counter(obs::kBotsButtonPressesTotal, {{"button", "send"}})
      .inc();
  auto it = drafts_.find(draft_id);
  if (it == drafts_.end()) return ButtonResult::UnknownDraft;
  if (!server_->is_developer(developer)) return ButtonResult::NotADeveloper;
  if (it->second.resolved) return ButtonResult::AlreadyResolved;

  Message* msg = server_->find_message(forum_channel_, draft_id);
  if (msg == nullptr) return ButtonResult::UnknownDraft;

  // Send to the list with the developer's signature (the paper: "with a
  // signature of the name of the developer who clicked the button").
  std::string body = msg->content;
  const std::size_t buttons = body.find("\n\n[buttons:");
  if (buttons != std::string::npos) body.resize(buttons);
  body += "\n\n-- sent on behalf of the PETSc team by ";
  body += developer;
  list_->post(bot_email_address_, "Re: " + it->second.subject, body);
  ++emails_sent_;

  msg->tags["status"] = "sent";
  msg->tags["signed-by"] = std::string(developer);
  msg->tags["sent-at"] = server_->clock().timestamp();
  it->second.resolved = true;

  // Developer approval is the vetting step: a sent answer is trusted
  // knowledge, so feed the resolved thread back into the live KB (§II).
  if (ingestor_ != nullptr) {
    ingestor_->ingest_qa(
        "resolved/thread-" + std::to_string(it->second.post_id) + ".md",
        it->second.subject, it->second.question_context, body);
    ++threads_ingested_;
  }
  return ButtonResult::Ok;
}

ButtonResult ChatBot::press_discard(std::uint64_t draft_id,
                                    std::string_view developer) {
  obs::global_metrics()
      .counter(obs::kBotsButtonPressesTotal, {{"button", "discard"}})
      .inc();
  auto it = drafts_.find(draft_id);
  if (it == drafts_.end()) return ButtonResult::UnknownDraft;
  if (!server_->is_developer(developer)) return ButtonResult::NotADeveloper;
  if (it->second.resolved) return ButtonResult::AlreadyResolved;
  server_->delete_message(forum_channel_, draft_id);
  it->second.resolved = true;
  return ButtonResult::Ok;
}

ButtonResult ChatBot::press_revise(std::uint64_t draft_id,
                                   std::string_view developer,
                                   std::string_view guidance,
                                   std::uint64_t* new_draft_id) {
  obs::global_metrics()
      .counter(obs::kBotsButtonPressesTotal, {{"button", "revise"}})
      .inc();
  auto it = drafts_.find(draft_id);
  if (it == drafts_.end()) return ButtonResult::UnknownDraft;
  if (!server_->is_developer(developer)) return ButtonResult::NotADeveloper;
  if (it->second.resolved) return ButtonResult::AlreadyResolved;

  const DraftInfo info = it->second;
  server_->delete_message(forum_channel_, draft_id);
  it->second.resolved = true;

  const std::uint64_t fresh = attach_draft(info.post_id, info.subject,
                                           info.question_context, guidance);
  if (new_draft_id != nullptr) *new_draft_id = fresh;
  return ButtonResult::Ok;
}

}  // namespace pkb::bots
