#include "bots/platform.h"

#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pkb::bots {

DiscordServer::DiscordServer(pkb::util::SimClock* clock) : clock_(clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("DiscordServer: clock must not be null");
  }
}

bool DiscordServer::create_channel(std::string_view name, ChannelKind kind,
                                   bool is_private) {
  if (channel(name) != nullptr) return false;
  Channel ch;
  ch.name = std::string(name);
  ch.kind = kind;
  ch.is_private = is_private;
  channels_.push_back(std::move(ch));
  return true;
}

const Channel* DiscordServer::channel(std::string_view name) const {
  for (const Channel& ch : channels_) {
    if (ch.name == name) return &ch;
  }
  return nullptr;
}

Channel* DiscordServer::channel_mut(std::string_view name) {
  for (Channel& ch : channels_) {
    if (ch.name == name) return &ch;
  }
  return nullptr;
}

void DiscordServer::join(std::string_view user, bool is_developer) {
  members_[std::string(user)] = is_developer;
}

bool DiscordServer::is_developer(std::string_view user) const {
  auto it = members_.find(std::string(user));
  return it != members_.end() && it->second;
}

std::uint64_t DiscordServer::post_message(std::string_view channel_name,
                                          std::string_view author,
                                          std::string_view content,
                                          std::vector<std::string> attachments) {
  Channel* ch = channel_mut(channel_name);
  if (ch == nullptr) {
    throw std::invalid_argument("unknown channel: " + std::string(channel_name));
  }
  if (ch->kind != ChannelKind::Text) {
    throw std::invalid_argument("not a text channel: " + std::string(channel_name));
  }
  const bool privileged =
      is_developer(author) || author.find("bot") != std::string_view::npos ||
      author == "webhook";
  if (ch->is_private && !privileged) {
    throw std::invalid_argument("private channel: " + std::string(channel_name));
  }
  Message msg;
  msg.id = next_id_++;
  msg.author = std::string(author);
  msg.content = std::string(content);
  msg.timestamp = clock_->now();
  msg.attachments = std::move(attachments);
  ch->messages.push_back(std::move(msg));
  obs::global_metrics()
      .counter(obs::kBotsMessagesTotal, {{"kind", "text"}})
      .inc();
  return ch->messages.back().id;
}

std::uint64_t DiscordServer::create_post(std::string_view channel_name,
                                         std::string_view title) {
  Channel* ch = channel_mut(channel_name);
  if (ch == nullptr || ch->kind != ChannelKind::Forum) {
    throw std::invalid_argument("not a forum channel: " +
                                std::string(channel_name));
  }
  ForumPost post;
  post.id = next_id_++;
  post.title = std::string(title);
  ch->posts.push_back(std::move(post));
  return ch->posts.back().id;
}

std::uint64_t DiscordServer::add_to_post(std::string_view channel_name,
                                         std::uint64_t post_id,
                                         std::string_view author,
                                         std::string_view content,
                                         std::vector<std::string> attachments) {
  Channel* ch = channel_mut(channel_name);
  if (ch == nullptr || ch->kind != ChannelKind::Forum) {
    throw std::invalid_argument("not a forum channel: " +
                                std::string(channel_name));
  }
  for (ForumPost& post : ch->posts) {
    if (post.id == post_id) {
      Message msg;
      msg.id = next_id_++;
      msg.author = std::string(author);
      msg.content = std::string(content);
      msg.timestamp = clock_->now();
      msg.attachments = std::move(attachments);
      post.messages.push_back(std::move(msg));
      obs::global_metrics()
          .counter(obs::kBotsMessagesTotal, {{"kind", "forum"}})
          .inc();
      return post.messages.back().id;
    }
  }
  throw std::invalid_argument("unknown post id");
}

const ForumPost* DiscordServer::find_post(std::string_view channel_name,
                                          std::string_view title) const {
  const Channel* ch = channel(channel_name);
  if (ch == nullptr) return nullptr;
  for (const ForumPost& post : ch->posts) {
    if (post.title == title) return &post;
  }
  return nullptr;
}

const ForumPost* DiscordServer::post(std::string_view channel_name,
                                     std::uint64_t post_id) const {
  const Channel* ch = channel(channel_name);
  if (ch == nullptr) return nullptr;
  for (const ForumPost& post : ch->posts) {
    if (post.id == post_id) return &post;
  }
  return nullptr;
}

Message* DiscordServer::find_message(std::string_view channel_name,
                                     std::uint64_t message_id) {
  Channel* ch = channel_mut(channel_name);
  if (ch == nullptr) return nullptr;
  for (Message& msg : ch->messages) {
    if (msg.id == message_id) return &msg;
  }
  for (ForumPost& post : ch->posts) {
    for (Message& msg : post.messages) {
      if (msg.id == message_id) return &msg;
    }
  }
  return nullptr;
}

bool DiscordServer::delete_message(std::string_view channel_name,
                                   std::uint64_t message_id) {
  Channel* ch = channel_mut(channel_name);
  if (ch == nullptr) return false;
  auto erase_from = [message_id](std::vector<Message>& messages) {
    for (auto it = messages.begin(); it != messages.end(); ++it) {
      if (it->id == message_id) {
        messages.erase(it);
        return true;
      }
    }
    return false;
  };
  if (erase_from(ch->messages)) return true;
  for (ForumPost& post : ch->posts) {
    if (erase_from(post.messages)) return true;
  }
  return false;
}

std::string DiscordServer::create_webhook(std::string_view channel_name) {
  if (channel(channel_name) == nullptr) {
    throw std::invalid_argument("unknown channel: " + std::string(channel_name));
  }
  Webhook hook;
  hook.url = "webhook://petsc/" + std::to_string(next_id_++);
  hook.channel = std::string(channel_name);
  webhooks_.push_back(hook);
  return webhooks_.back().url;
}

std::optional<std::uint64_t> DiscordServer::post_via_webhook(
    std::string_view url, std::string_view content) {
  for (const Webhook& hook : webhooks_) {
    if (hook.url == url) {
      return post_message(hook.channel, "webhook", content);
    }
  }
  return std::nullopt;
}

}  // namespace pkb::bots
