#include <gtest/gtest.h>

#include "bots/chat_bot.h"
#include "bots/email_bot.h"
#include "bots/mail.h"
#include "bots/platform.h"
#include "corpus/generator.h"
#include "rag/workflow.h"

namespace pkb::bots {
namespace {

TEST(Platform, ChannelsAndMembership) {
  pkb::util::SimClock clock;
  DiscordServer server(&clock);
  EXPECT_TRUE(server.create_channel("general", ChannelKind::Text));
  EXPECT_FALSE(server.create_channel("general", ChannelKind::Text));
  server.join("alice", /*is_developer=*/true);
  server.join("bob");
  EXPECT_TRUE(server.is_developer("alice"));
  EXPECT_FALSE(server.is_developer("bob"));
  EXPECT_EQ(server.member_count(), 2u);
}

TEST(Platform, MessagesCarryTimestamps) {
  pkb::util::SimClock clock;
  DiscordServer server(&clock);
  server.create_channel("general", ChannelKind::Text);
  server.join("alice", true);
  clock.advance(100.0);
  const auto id = server.post_message("general", "alice", "hello");
  const Channel* ch = server.channel("general");
  ASSERT_EQ(ch->messages.size(), 1u);
  EXPECT_EQ(ch->messages[0].id, id);
  EXPECT_DOUBLE_EQ(ch->messages[0].timestamp, 100.0);
}

TEST(Platform, PrivateChannelsRejectNonDevelopers) {
  pkb::util::SimClock clock;
  DiscordServer server(&clock);
  server.create_channel("petsc-users-emails-private", ChannelKind::Text,
                        /*is_private=*/true);
  server.join("dev", true);
  server.join("user", false);
  EXPECT_NO_THROW(server.post_message("petsc-users-emails-private", "dev",
                                      "internal"));
  EXPECT_THROW(server.post_message("petsc-users-emails-private", "user",
                                   "sneaky"),
               std::invalid_argument);
}

TEST(Platform, ForumPostsAndLookup) {
  pkb::util::SimClock clock;
  DiscordServer server(&clock);
  server.create_channel("forum", ChannelKind::Forum);
  const auto post_id = server.create_post("forum", "Solver diverges");
  server.add_to_post("forum", post_id, "email-bot", "first message");
  server.add_to_post("forum", post_id, "email-bot", "second message");
  const ForumPost* post = server.find_post("forum", "Solver diverges");
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->id, post_id);
  EXPECT_EQ(post->messages.size(), 2u);
  EXPECT_EQ(server.find_post("forum", "nope"), nullptr);
  EXPECT_THROW(server.create_post("nonexistent", "t"), std::invalid_argument);
  EXPECT_THROW(server.add_to_post("forum", 9999, "a", "b"),
               std::invalid_argument);
}

TEST(Platform, WebhooksPostIntoBoundChannel) {
  pkb::util::SimClock clock;
  DiscordServer server(&clock);
  server.create_channel("notify", ChannelKind::Text, true);
  const std::string url = server.create_webhook("notify");
  const auto id = server.post_via_webhook(url, "ping");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(server.channel("notify")->messages.size(), 1u);
  EXPECT_EQ(server.channel("notify")->messages[0].author, "webhook");
  EXPECT_FALSE(server.post_via_webhook("webhook://bogus", "x").has_value());
}

TEST(Platform, DeleteAndFindMessage) {
  pkb::util::SimClock clock;
  DiscordServer server(&clock);
  server.create_channel("forum", ChannelKind::Forum);
  const auto post_id = server.create_post("forum", "t");
  const auto msg_id = server.add_to_post("forum", post_id, "bot", "draft");
  ASSERT_NE(server.find_message("forum", msg_id), nullptr);
  EXPECT_TRUE(server.delete_message("forum", msg_id));
  EXPECT_EQ(server.find_message("forum", msg_id), nullptr);
  EXPECT_FALSE(server.delete_message("forum", msg_id));
}

TEST(Mail, ThreadKeyNormalization) {
  EXPECT_EQ(thread_key("Re: Re: solver question"), "solver question");
  EXPECT_EQ(thread_key("  Fwd: RE: help  "), "help");
  EXPECT_EQ(thread_key("plain subject"), "plain subject");
}

TEST(Mail, QuoteStripping) {
  const std::string body =
      "Thanks for the reply!\n"
      "> earlier quoted text\n"
      "> more quote\n"
      "On Monday, Barry wrote:\n"
      "My actual new content.\n";
  const std::string cleaned = strip_quoted_lines(body);
  EXPECT_EQ(cleaned.find("quoted text"), std::string::npos);
  EXPECT_EQ(cleaned.find("wrote:"), std::string::npos);
  EXPECT_NE(cleaned.find("Thanks for the reply!"), std::string::npos);
  EXPECT_NE(cleaned.find("My actual new content."), std::string::npos);
}

TEST(Mail, UrlDefenseReversal) {
  const std::string body =
      "see https://urldefense.us/v3/__https://petsc.org/release/manual__;"
      "Xy0Zq$ for details";
  EXPECT_EQ(revert_url_defense(body),
            "see https://petsc.org/release/manual for details");
  // No-op without the wrapper.
  EXPECT_EQ(revert_url_defense("plain https://petsc.org"),
            "plain https://petsc.org");
}

TEST(Mail, ListFanOutAndArchive) {
  pkb::util::SimClock clock;
  MailingList list("petsc-users@mcs.anl.gov", &clock);
  Mailbox alice("alice@univ.edu");
  Mailbox bot("petscbot@gmail.com");
  list.subscribe(&alice);
  list.subscribe(&bot);
  clock.advance(50);
  list.post("bob@lab.gov", "solver help", "my KSP diverges");
  EXPECT_EQ(list.archive().size(), 1u);
  EXPECT_EQ(alice.unread().size(), 1u);
  EXPECT_EQ(bot.unread().size(), 1u);
  EXPECT_DOUBLE_EQ(bot.unread()[0]->timestamp, 50.0);
  EXPECT_TRUE(bot.mark_read(bot.unread()[0]->id));
  EXPECT_TRUE(bot.unread().empty());
  EXPECT_EQ(alice.unread().size(), 1u);  // per-mailbox flags
}

// --- end-to-end Fig 5 workflow -------------------------------------------

class Fig5Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new rag::KnowledgeBase(
        rag::KnowledgeBase::build(pkb::corpus::generate_corpus()));
  }
  void SetUp() override {
    clock_ = std::make_unique<pkb::util::SimClock>();
    server_ = std::make_unique<DiscordServer>(clock_.get());
    server_->create_channel("petsc-users-notification", ChannelKind::Text,
                            true);
    server_->create_channel("petsc-users-emails", ChannelKind::Forum, true);
    server_->join("barry", /*is_developer=*/true);
    server_->join("jed", /*is_developer=*/true);
    server_->join("random-user", false);

    list_ = std::make_unique<MailingList>("petsc-users@mcs.anl.gov",
                                          clock_.get());
    bot_mailbox_ = std::make_unique<Mailbox>("petscbot@gmail.com");
    list_->subscribe(bot_mailbox_.get());

    webhook_ = server_->create_webhook("petsc-users-notification");
    poller_ = std::make_unique<GmailPoller>(bot_mailbox_.get(), server_.get(),
                                            webhook_, "petscbot@gmail.com");
    email_bot_ = std::make_unique<EmailBot>(bot_mailbox_.get(), server_.get(),
                                            "petsc-users-notification",
                                            "petsc-users-emails");
    workflow_ = std::make_unique<rag::AugmentedWorkflow>(
        *db_, rag::PipelineArm::RagRerank, llm::model_config("sim-gpt-4o"));
    chat_bot_ = std::make_unique<ChatBot>(workflow_.get(), server_.get(),
                                          list_.get(), "petsc-users-emails",
                                          "petscbot@gmail.com");
  }

  static rag::KnowledgeBase* db_;
  std::unique_ptr<pkb::util::SimClock> clock_;
  std::unique_ptr<DiscordServer> server_;
  std::unique_ptr<MailingList> list_;
  std::unique_ptr<Mailbox> bot_mailbox_;
  std::string webhook_;
  std::unique_ptr<GmailPoller> poller_;
  std::unique_ptr<EmailBot> email_bot_;
  std::unique_ptr<rag::AugmentedWorkflow> workflow_;
  std::unique_ptr<ChatBot> chat_bot_;
};

rag::KnowledgeBase* Fig5Test::db_ = nullptr;

TEST_F(Fig5Test, EmailFlowsIntoForumPost) {
  list_->post("user@univ.edu", "rectangular systems",
              "Can I use KSP to solve a system where the matrix is not "
              "square, only rectangular?");
  EXPECT_TRUE(poller_->poll());
  EXPECT_EQ(email_bot_->process_notifications(), 1u);
  const ForumPost* post =
      server_->find_post("petsc-users-emails", "rectangular systems");
  ASSERT_NE(post, nullptr);
  ASSERT_EQ(post->messages.size(), 1u);
  EXPECT_NE(post->messages[0].content.find("user@univ.edu"),
            std::string::npos);
  // Idle poll sends nothing.
  EXPECT_FALSE(poller_->poll());
}

TEST_F(Fig5Test, ThreadedRepliesJoinTheSamePost) {
  list_->post("user@univ.edu", "solver blows up", "first message");
  poller_->poll();
  email_bot_->process_notifications();
  list_->post("user@univ.edu", "Re: solver blows up", "follow-up detail");
  poller_->poll();
  email_bot_->process_notifications();
  const ForumPost* post =
      server_->find_post("petsc-users-emails", "solver blows up");
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->messages.size(), 2u);
}

TEST_F(Fig5Test, ReplyDraftSendReachesTheList) {
  list_->post("user@univ.edu", "rectangular systems",
              "Can I use KSP to solve a system where the matrix is not "
              "square, only rectangular?");
  poller_->poll();
  email_bot_->process_notifications();
  const ForumPost* post =
      server_->find_post("petsc-users-emails", "rectangular systems");
  ASSERT_NE(post, nullptr);

  const auto draft_id = chat_bot_->handle_reply_command(post->id, "barry");
  ASSERT_TRUE(draft_id.has_value());
  const Message* draft =
      server_->find_message("petsc-users-emails", *draft_id);
  ASSERT_NE(draft, nullptr);
  EXPECT_EQ(draft->tags.at("status"), "draft");
  EXPECT_NE(draft->content.find("[buttons: send | discard | revise]"),
            std::string::npos);
  // The draft is grounded in the KB: it should mention the right solver.
  EXPECT_NE(draft->content.find("KSPLSQR"), std::string::npos);

  EXPECT_EQ(chat_bot_->press_send(*draft_id, "barry"), ButtonResult::Ok);
  ASSERT_EQ(list_->archive().size(), 2u);  // original + reply
  const Email& reply = list_->archive().back();
  EXPECT_EQ(reply.from, "petscbot@gmail.com");
  EXPECT_EQ(reply.subject, "Re: rectangular systems");
  EXPECT_NE(reply.body.find("sent on behalf of the PETSc team by barry"),
            std::string::npos);
  EXPECT_EQ(chat_bot_->emails_sent(), 1u);
  // Tagged in Discord.
  const Message* sent = server_->find_message("petsc-users-emails", *draft_id);
  EXPECT_EQ(sent->tags.at("status"), "sent");
  EXPECT_EQ(sent->tags.at("signed-by"), "barry");
  // The bot's own email is ignored by the poller (no re-post loop).
  EXPECT_FALSE(poller_->poll());
}

TEST_F(Fig5Test, DiscardDeletesDraftAndNothingReachesTheList) {
  list_->post("user@univ.edu", "question", "How do I monitor the residual?");
  poller_->poll();
  email_bot_->process_notifications();
  const ForumPost* post = server_->find_post("petsc-users-emails", "question");
  const auto draft_id = chat_bot_->handle_reply_command(post->id, "jed");
  ASSERT_TRUE(draft_id.has_value());
  EXPECT_EQ(chat_bot_->press_discard(*draft_id, "jed"), ButtonResult::Ok);
  EXPECT_EQ(server_->find_message("petsc-users-emails", *draft_id), nullptr);
  EXPECT_EQ(list_->archive().size(), 1u);  // only the user's email
  // Buttons on a resolved draft fail.
  EXPECT_EQ(chat_bot_->press_send(*draft_id, "jed"),
            ButtonResult::AlreadyResolved);
}

TEST_F(Fig5Test, ReviseRegeneratesWithGuidance) {
  list_->post("user@univ.edu", "question",
              "How do I cap the number of iterations?");
  poller_->poll();
  email_bot_->process_notifications();
  const ForumPost* post = server_->find_post("petsc-users-emails", "question");
  const auto draft_id = chat_bot_->handle_reply_command(post->id, "barry");
  ASSERT_TRUE(draft_id.has_value());
  std::uint64_t new_id = 0;
  EXPECT_EQ(chat_bot_->press_revise(*draft_id, "barry",
                                    "mention -ksp_max_it explicitly",
                                    &new_id),
            ButtonResult::Ok);
  EXPECT_NE(new_id, 0u);
  EXPECT_NE(new_id, *draft_id);
  EXPECT_EQ(server_->find_message("petsc-users-emails", *draft_id), nullptr);
  const Message* fresh = server_->find_message("petsc-users-emails", new_id);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->tags.at("status"), "draft");
  // Sending the revised draft works.
  EXPECT_EQ(chat_bot_->press_send(new_id, "barry"), ButtonResult::Ok);
}

TEST_F(Fig5Test, SafetyInvariantNonDevelopersCannotActOnDrafts) {
  list_->post("user@univ.edu", "q", "What does KSPSolve do?");
  poller_->poll();
  email_bot_->process_notifications();
  const ForumPost* post = server_->find_post("petsc-users-emails", "q");
  // /reply is developer-only.
  EXPECT_FALSE(chat_bot_->handle_reply_command(post->id, "random-user")
                   .has_value());
  const auto draft_id = chat_bot_->handle_reply_command(post->id, "barry");
  ASSERT_TRUE(draft_id.has_value());
  EXPECT_EQ(chat_bot_->press_send(*draft_id, "random-user"),
            ButtonResult::NotADeveloper);
  EXPECT_EQ(chat_bot_->press_discard(*draft_id, "random-user"),
            ButtonResult::NotADeveloper);
  // Nothing reached the list without a developer send.
  EXPECT_EQ(list_->archive().size(), 1u);
  EXPECT_EQ(chat_bot_->emails_sent(), 0u);
  // Unknown draft ids are rejected.
  EXPECT_EQ(chat_bot_->press_send(424242, "barry"),
            ButtonResult::UnknownDraft);
}

}  // namespace
}  // namespace pkb::bots
