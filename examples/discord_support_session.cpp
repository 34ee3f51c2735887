// Full Fig 5 workflow, narrated: a user emails petsc-users, the poller
// notices, the email bot mirrors the thread into the developers' Discord
// forum, a developer invokes /reply, the chat bot drafts an answer with the
// augmented LLM, the developer revises then sends, and the reply lands back
// on the mailing list — with the safety invariant (nothing unvetted reaches
// the list) visible at every step.
//
// The send is also the curation step: the chat bot ingests the resolved
// thread into the live knowledge base, so a second user's related question
// is answered from it. A second draft is discarded, and neither reaches the
// list nor the knowledge base.

#include <cstdio>

#include "bots/chat_bot.h"
#include "bots/email_bot.h"
#include "corpus/generator.h"
#include "ingest/ingestor.h"
#include "rag/workflow.h"

namespace {

void narrate(const pkb::util::SimClock& clock, const char* what) {
  std::printf("[%s] %s\n", clock.timestamp().c_str(), what);
}

}  // namespace

int main() {
  using namespace pkb;

  // --- infrastructure ------------------------------------------------------
  pkb::util::SimClock clock;
  bots::DiscordServer server(&clock);
  server.create_channel("petsc-users-notification", bots::ChannelKind::Text,
                        /*is_private=*/true);
  server.create_channel("petsc-users-emails", bots::ChannelKind::Forum,
                        /*is_private=*/true);
  server.join("barry", /*is_developer=*/true);
  server.join("lois", /*is_developer=*/true);

  bots::MailingList list("petsc-users@mcs.anl.gov", &clock);
  bots::Mailbox bot_mailbox("petscbot@gmail.com");
  list.subscribe(&bot_mailbox);

  const std::string webhook = server.create_webhook("petsc-users-notification");
  bots::GmailPoller poller(&bot_mailbox, &server, webhook,
                           "petscbot@gmail.com");
  bots::EmailBot email_bot(&bot_mailbox, &server, "petsc-users-notification",
                           "petsc-users-emails");

  std::printf("building the RAG database...\n");
  rag::KnowledgeBase db = rag::KnowledgeBase::build(corpus::generate_corpus());
  const rag::AugmentedWorkflow workflow(db, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  ingest::Ingestor ingestor(db);
  bots::ChatBot chat_bot(&workflow, &server, &list, "petsc-users-emails",
                         "petscbot@gmail.com");
  chat_bot.attach_ingestor(&ingestor);
  std::printf("\n");

  // --- arc 1: the user emails the list ------------------------------------
  clock.advance(9 * 3600);  // 09:00
  list.post("grad.student@univ.edu", "KSP for non-square systems",
            "Hi all,\n"
            "Can I use KSP to solve a system where the matrix is not square, "
            "only rectangular? Must it be invertible too or does that depend "
            "on how you're using KSP?\n"
            "See https://urldefense.us/v3/__https://petsc.org/release__;"
            "Tok3n$ for what I already read.\n"
            "> (no earlier message)\n");
  narrate(clock, "user email posted to petsc-users");

  // --- arcs 2-3: poller -> webhook -> email bot -> forum post -------------
  clock.advance(300);  // the Apps Script polls every 5 minutes
  poller.poll();
  narrate(clock, "poller found unread mail; webhook notification sent");
  email_bot.process_notifications();
  narrate(clock, "email bot mirrored the thread into #petsc-users-emails");

  const bots::ForumPost* post =
      server.find_post("petsc-users-emails", "KSP for non-square systems");
  std::printf("    forum post: \"%s\"\n    body: %s\n\n", post->title.c_str(),
              post->messages[0].content.c_str());

  // --- arc 4: developer invokes /reply -------------------------------------
  clock.advance(600);
  const auto draft_id = chat_bot.handle_reply_command(post->id, "barry");
  narrate(clock, "barry invoked /reply; the chat bot drafted an answer:");
  const bots::Message* draft =
      server.find_message("petsc-users-emails", *draft_id);
  std::printf("    %s\n\n", draft->content.c_str());

  // --- arc 5: developer revises --------------------------------------------
  clock.advance(120);
  std::uint64_t revised_id = 0;
  chat_bot.press_revise(*draft_id, "barry",
                        "also mention that the preconditioner acts on the "
                        "normal equations",
                        &revised_id);
  narrate(clock, "barry pressed [revise] with guidance; new draft:");
  const bots::Message* revised =
      server.find_message("petsc-users-emails", revised_id);
  std::printf("    %s\n\n", revised->content.c_str());

  // --- arcs 6-7: send to the list ------------------------------------------
  clock.advance(60);
  chat_bot.press_send(revised_id, "barry");
  narrate(clock, "barry pressed [send]; the reply went to petsc-users:");
  const bots::Email& reply = list.archive().back();
  std::printf("    From: %s\n    Subject: %s\n    %s\n", reply.from.c_str(),
              reply.subject.c_str(), reply.body.c_str());
  std::printf("    the vetted thread was ingested: %zu thread(s), knowledge "
              "base generation %llu\n\n",
              chat_bot.threads_ingested(),
              static_cast<unsigned long long>(db.generation()));

  // --- the no-loop guarantee ------------------------------------------------
  clock.advance(300);
  const bool notified = poller.poll();
  narrate(clock, notified
                     ? "ERROR: poller re-posted the bot's own email!"
                     : "poller correctly ignored the bot's own reply (no "
                       "repost loop)");
  std::printf("\n");

  // --- the curation loop: a related question finds the vetted thread ------
  clock.advance(3600);
  const std::string thread_source =
      "resolved/thread-" + std::to_string(post->id) + ".md";
  const rag::WorkflowOutcome followup = workflow.answer(
      "Rectangular matrix with KSP: is that possible, and which solver?");
  narrate(clock, "another user asked the assistant a related question; the "
                 "answer used these sources:");
  for (const std::string& id : followup.response.used_context_ids) {
    const bool vetted = id.starts_with(thread_source + "#");
    std::printf("    %s%s\n", id.c_str(),
                vetted ? "  <- the resolved thread, vetted by barry" : "");
  }
  std::printf("\n");

  // --- [discard]: a rejected draft goes nowhere ----------------------------
  clock.advance(600);
  list.post("postdoc@lab.gov", "Which KSP for a rectangular system?",
            "Is there a KSP that handles least-squares problems?\n");
  clock.advance(300);
  poller.poll();
  email_bot.process_notifications();
  const bots::ForumPost* second =
      server.find_post("petsc-users-emails",
                       "Which KSP for a rectangular system?");
  const std::size_t mailed_before = list.archive().size();
  const auto second_draft = chat_bot.handle_reply_command(second->id, "lois");
  clock.advance(120);
  chat_bot.press_discard(*second_draft, "lois");
  narrate(clock, "lois drafted a reply to a second thread and pressed "
                 "[discard]:");
  std::printf("    emails sent for the discarded draft: %zu; threads "
              "ingested: %zu; knowledge base generation %llu\n",
              list.archive().size() - mailed_before,
              chat_bot.threads_ingested(),
              static_cast<unsigned long long>(db.generation()));

  std::printf("\nsummary: %zu emails on the list, %zu sent by the bot, all "
              "after developer vetting.\n",
              list.archive().size(), chat_bot.emails_sent());
  return 0;
}
