import json
import math
import warnings

import numpy as np
import pytest

from neighborgen.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, cli
from neighborgen.model import RASTER, init_model, save_checkpoint
from neighborgen.render import Palette, render_grid, write_ppm
from neighborgen.sample import SamplingConfig
from neighborgen.tokens_io import (TokenFormatError, grid_from_json,
                                   grid_to_json, load_tokens, save_tokens)
from neighborgen.train import MetricPoint
from tests.test_model import randomize, small_config


class TestTokensIO:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        for dims in ((4, 6), (2, 3, 5)):
            grid = rng.integers(0, 300, dims)
            path = tmp_path / "g.tokens"
            save_tokens(path, grid)
            assert np.array_equal(load_tokens(path), grid)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(1)
        grid = rng.integers(0, 16, (5, 5))
        cfg = SamplingConfig(temperature=0.9, top_k=3, cfg_scale=2.0, seed=7)
        text = grid_to_json(grid, 16, 2, cfg)
        back, header = grid_from_json(text)
        assert np.array_equal(back, grid)
        assert header["vocab"] == 16 and header["class"] == 2
        assert header["config"]["cfg_scale"] == 2.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tokens"
        path.write_bytes(b"garbage")
        with pytest.raises(TokenFormatError):
            load_tokens(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.tokens"
        grid = np.zeros((3, 3), np.int64)
        save_tokens(path, grid)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(TokenFormatError):
            load_tokens(path)


    @pytest.mark.parametrize("text", [
        "{}", "[1]", '{"shape": [], "tokens_b64": "AAA="}',
        '{"shape": [0, 5], "tokens_b64": ""}'])
    def test_malformed_json_is_format_error(self, text):
        with pytest.raises(TokenFormatError):
            grid_from_json(text)

    @pytest.mark.parametrize("dims", [(4, 4), (2, 3, 3)])
    def test_header_cut_at_every_byte(self, tmp_path, capsys, dims):
        path = tmp_path / "x.tokens"
        save_tokens(path, np.ones(dims, np.int64))
        blob = path.read_bytes()
        header = 8 + 4 * (1 + len(dims))
        out = str(tmp_path / "x.ppm")
        for cut in range(header):
            path.write_bytes(blob[:cut])
            with pytest.raises(TokenFormatError) as e:
                load_tokens(path)
            if cut >= 8:  # past the magic
                assert str(e.value).startswith("truncated header"), cut
            assert cli(["render", "--input", str(path),
                        "--out", out]) == EXIT_DATA
        assert capsys.readouterr().err.count("data error:") == header

    def test_zero_dimension_rejected(self, tmp_path, capsys):
        path = tmp_path / "z.tokens"
        save_tokens(path, np.zeros((0, 5), np.int64))
        with pytest.raises(TokenFormatError):
            load_tokens(path)
        out = str(tmp_path / "z.ppm")
        assert cli(["render", "--input", str(path), "--out", out]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestRender:
    def test_pixel_payload_size(self):
        palette = Palette.make(4)
        imgs = render_grid(np.zeros((2, 2), np.int64), palette, zoom=1)
        assert len(imgs) == 1
        header, _, rest = imgs[0].partition(b"255\n")
        assert len(rest) == 12  # 4 pixels x 3 bytes

    def test_zoom_scales_dimensions(self):
        palette = Palette.make(4)
        img = render_grid(np.zeros((5, 5), np.int64), palette, zoom=8)[0]
        assert img.startswith(b"P6\n40 40\n255\n")

    def test_3d_one_file_per_frame(self, tmp_path):
        palette = Palette.make(4)
        grid = np.zeros((4, 8, 8), np.int64)
        paths = write_ppm(grid, palette, str(tmp_path / "v.ppm"), zoom=1)
        assert len(paths) == 4
        assert paths[0].endswith("_0000.ppm")

    def test_constant_grid_single_color(self):
        palette = Palette.make(5, seed=1)
        img = render_grid(np.full((3, 3), 2, np.int64), palette)[0]
        body = img.split(b"255\n", 1)[1]
        px = palette.colors[2].tobytes()
        assert body == px * 9

    def test_out_of_range_token(self):
        with pytest.raises(ValueError):
            render_grid(np.full((2, 2), 9, np.int64), Palette.make(4))

    def test_palette_deterministic(self):
        assert np.array_equal(Palette.make(7, 3).colors,
                              Palette.make(7, 3).colors)


class TestCli:
    def test_schedule_3x3(self, capsys):
        assert cli(["schedule", "--shape", "3x3"]) == EXIT_OK
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "shape=3x3"
        lengths = [len(line.split(": ")[1].split()) for line in out[1:]]
        assert lengths == [1, 2, 3, 2, 1]

    def test_mask_output(self, capsys):
        assert cli(["mask", "--shape", "1x1"]) == EXIT_OK
        assert capsys.readouterr().out == "10\n11\n"

    def test_usage_errors(self, capsys):
        assert cli(["schedule"]) == EXIT_USAGE
        assert cli(["frobnicate"]) == EXIT_USAGE
        assert cli(["schedule", "--shape", "bogus"]) == EXIT_USAGE

    def test_generate_and_render_and_inspect(self, tmp_path, capsys):
        params = randomize(init_model(small_config(dims=(3, 3)), 0), 4)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(params, ckpt)
        prefix = str(tmp_path / "s")
        assert cli(["generate", "--ckpt", str(ckpt), "--num", "2",
                    "--class-id", "1", "--seed", "3",
                    "--out-prefix", prefix]) == EXIT_OK
        out = capsys.readouterr().out
        assert "forward_passes=5" in out
        tok = f"{prefix}_0000.tokens"
        grid = load_tokens(tok)
        assert grid.shape == (3, 3)
        ppm = str(tmp_path / "s.ppm")
        assert cli(["render", "--input", tok, "--out", ppm,
                    "--vocab", "5"]) == EXIT_OK
        assert open(ppm, "rb").read(2) == b"P6"
        assert cli(["inspect", "--ckpt", str(ckpt)]) == EXIT_OK
        assert "parameters:" in capsys.readouterr().out

    def test_corrupt_checkpoint_exit_code(self, tmp_path, capsys):
        params = init_model(small_config(), 0)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(params, ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[60] ^= 0x55
        ckpt.write_bytes(bytes(blob))
        assert cli(["inspect", "--ckpt", str(ckpt)]) == EXIT_DATA

    def test_missing_file_exit_code(self, capsys):
        assert cli(["inspect", "--ckpt", "/nonexistent.ckpt"]) == EXIT_DATA
        assert cli(["render", "--input", "/nope.tokens",
                    "--out", "/tmp/x.ppm"]) == EXIT_DATA

    @pytest.mark.parametrize("command, flag", [
        ("render", "--out"), ("render", "--input"), ("train", "--metrics"),
        ("train", "--out"), ("train", "--config"), ("schedule", "--out"),
        ("inspect", "--ckpt"), ("generate", "--ckpt")])
    def test_directory_path_exits_with_data_error(self, tmp_path, capsys,
                                                  command, flag):
        from tests.test_train import tiny_train_config
        tokens = tmp_path / "g.tokens"
        save_tokens(tokens, np.zeros((3, 3), np.int64))
        config = tmp_path / "train.json"
        config.write_text(tiny_train_config(steps=1).to_json())
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(small_config(), 0), ckpt)
        paths = {
            "render": {"--input": tokens, "--out": tmp_path / "g.ppm"},
            "train": {"--config": config, "--out": tmp_path / "t.ckpt",
                      "--metrics": tmp_path / "m.jsonl"},
            "schedule": {"--shape": "3x3", "--out": tmp_path / "s.txt"},
            "inspect": {"--ckpt": ckpt},
            "generate": {"--ckpt": ckpt,
                         "--out-prefix": tmp_path / "s"},
        }[command]
        paths[flag] = tmp_path
        argv = [command] + [str(x) for kv in paths.items() for x in kv]
        capsys.readouterr()
        assert cli(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize("num", ["0", "-2"])
    def test_generate_num_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                     num):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(small_config(), 0), ckpt)
        prefix = tmp_path / "s"
        assert cli(["generate", "--ckpt", str(ckpt), "--num", num,
                    "--out-prefix", str(prefix)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not list(tmp_path.glob("s_*"))

    def test_train_command(self, tmp_path, capsys):
        from tests.test_train import tiny_train_config
        cfg = tiny_train_config(steps=2, eval_interval=2)
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(cfg.to_json())
        ckpt = tmp_path / "t.ckpt"
        metrics = tmp_path / "metrics.jsonl"
        assert cli(["train", "--config", str(cfg_path), "--out", str(ckpt),
                    "--metrics", str(metrics)]) == EXIT_OK
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines and {"step", "train_loss", "eval_nll",
                          "wall_ms"} <= set(lines[-1])

        rcfg = tiny_train_config(mode="raster", steps=0)
        rpath = tmp_path / "raster.json"
        rpath.write_text(rcfg.to_json())
        rckpt = tmp_path / "r.ckpt"
        assert cli(["train", "--config", str(rpath), "--out",
                    str(rckpt)]) == EXIT_OK

    @pytest.mark.parametrize("mode, passes", [("neighbor", 5), (RASTER, 9)])
    def test_generate_reports_passes_tokens_and_wall_time(
            self, tmp_path, capsys, mode, passes):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(small_config(mode=mode, dims=(3, 3)), 0),
                        ckpt)
        prefix = str(tmp_path / "s")
        assert cli(["generate", "--ckpt", str(ckpt), "--num", "2",
                    "--out-prefix", prefix]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == [
            f"{prefix}_0000.tokens", f"{prefix}_0001.tokens"]
        for line in lines:
            # key=value pairs split on whitespace, as perfbench parses them
            fields = dict(kv.split("=") for kv in line.split(": ")[1].split())
            assert set(fields) == {"forward_passes", "tokens", "wall_ms"}
            assert int(fields["forward_passes"]) == passes
            assert int(fields["tokens"]) == 9
            assert 0 < float(fields["wall_ms"]) < 60_000

    def test_readme_cli_block_names_every_subcommand(self):
        import argparse
        import pathlib
        from neighborgen.cli import build_parser
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        named = {line.split()[1] for line in readme.read_text().splitlines()
                 if line.startswith("neighborgen ")}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert named == set(sub.choices)

    def test_bench_subcommand_is_gone(self, capsys):
        assert cli(["bench", "--neighbor-ckpt", "a", "--raster-ckpt",
                    "b"]) == EXIT_USAGE

    def test_cli_determinism(self, tmp_path, capsys):
        params = randomize(init_model(small_config(dims=(3, 3)), 0), 4)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(params, ckpt)
        outs = []
        for run in ("a", "b"):
            prefix = str(tmp_path / run)
            assert cli(["generate", "--ckpt", str(ckpt), "--num", "1",
                        "--seed", "9", "--out-prefix", prefix]) == EXIT_OK
            outs.append(open(f"{prefix}_0000.tokens", "rb").read())
        assert outs[0] == outs[1]


class TestNumericFaults:
    def data_errors(self, capsys):
        err = capsys.readouterr().err.splitlines()
        return [line for line in err if line.startswith("data error:")]

    def test_nan_checkpoint_generate_exits_with_data_error(self, tmp_path,
                                                           capsys):
        params = init_model(small_config(dims=(3, 3)), 0)
        for t in params.tensors.values():
            t.data[...] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(params, ckpt)
        prefix = str(tmp_path / "s")
        assert cli(["generate", "--ckpt", str(ckpt),
                    "--out-prefix", prefix]) == EXIT_DATA
        assert self.data_errors(capsys) == ["data error: non-finite logits"]
        assert not (tmp_path / "s_0000.tokens").exists()

    def train(self, tmp_path, metrics=None, **kw):
        from tests.test_train import tiny_train_config
        path = tmp_path / "train.json"
        path.write_text(tiny_train_config(steps=4, eval_interval=2,
                                          **kw).to_json())
        return cli(["train", "--config", str(path), "--out",
                    str(tmp_path / "t.ckpt")]
                   + (["--metrics", str(metrics)] if metrics else []))

    def test_diverging_loss_exits_with_data_error(self, tmp_path, capsys):
        # lr 1e30 overflows the weights in the second Adam update, and the
        # eval after it is the first check to see that
        metrics = tmp_path / "m.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.train(tmp_path, learning_rate=1e30,
                              metrics=metrics) == EXIT_DATA
        assert self.data_errors(capsys) == [
            "data error: non-finite eval NLL nan at step 2"]
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert not (tmp_path / "t.ckpt").exists()

        def reject(name):
            raise ValueError(f"{name} is not JSON")
        for line in metrics.read_text().splitlines():
            json.loads(line, parse_constant=reject)

    def test_metric_json_rejects_non_finite_values(self):
        point = MetricPoint(step=1, train_loss=1.0, eval_nll=math.nan,
                            wall_ms=1.0)
        with pytest.raises(ValueError):
            point.to_json()

    def test_non_finite_gradient_exits_with_data_error(self, tmp_path,
                                                       capsys, monkeypatch):
        from neighborgen import tensor

        def reject(params, grads, *args, **kw):
            raise tensor.NonFiniteGradient("non-finite gradient for 'w'")

        monkeypatch.setattr(tensor, "adam_step", reject)
        assert self.train(tmp_path) == EXIT_DATA
        assert self.data_errors(capsys) == [
            "data error: non-finite gradient for 'w'"]

    @pytest.mark.parametrize("flag, value", [
        ("--temperature", "nan"), ("--temperature", "inf"),
        ("--cfg-scale", "nan"), ("--cfg-scale", "inf")])
    def test_non_finite_sampling_flag_is_a_usage_error(self, tmp_path, capsys,
                                                       flag, value):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(small_config(dims=(3, 3)), 0), ckpt)
        assert cli(["generate", "--ckpt", str(ckpt), flag, value,
                    "--out-prefix", str(tmp_path / "s")]) == EXIT_USAGE
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"usage error: {field}")
        assert not (tmp_path / "s_0000.tokens").exists()

    def test_seed_outside_the_key_is_a_usage_error(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(small_config(dims=(3, 3)), 0), ckpt)
        assert cli(["generate", "--ckpt", str(ckpt), "--seed", "-1",
                    "--out-prefix", str(tmp_path / "s")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: seed")


class TestMalformedTrainConfig:
    @pytest.mark.parametrize("text", [
        "{}", "[]", '{"model": {}, "data": {}}'])
    def test_exits_with_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "train.json"
        path.write_text(text)
        assert cli(["train", "--config", str(path), "--out",
                    str(tmp_path / "t.ckpt")]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (tmp_path / "t.ckpt").exists()

    @pytest.mark.parametrize("field, value", [
        ("eval_interval", 0), ("total_steps", 2.5), ("learning_rate", "x"),
        ("seed", -1),
        # the data section must fit the model (model: 4x4, vocab 4, 3 classes)
        ("data.vocab_size", 9), ("data.coupling", "x"), ("data.shape", [5, 5]),
        ("data.num_classes", 0), ("data.num_classes", 7)])
    def test_bad_field_value_exits_with_data_error(self, tmp_path, capsys,
                                                   field, value):
        from tests.test_train import tiny_train_config
        d = json.loads(tiny_train_config(steps=2).to_json())
        *path, name = field.split(".")
        section = d
        for key in path:
            section = section[key]
        section[name] = value
        path = tmp_path / "train.json"
        path.write_text(json.dumps(d))
        assert cli(["train", "--config", str(path), "--out",
                    str(tmp_path / "t.ckpt")]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (tmp_path / "t.ckpt").exists()

    def test_nonzero_dropout_exits_with_data_error(self, tmp_path, capsys):
        from tests.test_train import tiny_train_config
        d = json.loads(tiny_train_config().to_json())
        d["model"]["dropout"] = 0.5
        path = tmp_path / "train.json"
        path.write_text(json.dumps(d))
        assert cli(["train", "--config", str(path), "--out",
                    str(tmp_path / "t.ckpt")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error:")
